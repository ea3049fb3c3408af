"""The benchmark's workloads: inputs, one timed block, and output checks.

A block is a fixed set of operations on inputs seeded by (seed, block
index), so a run covers many distinct instances, re-running a block
reproduces it exactly, and the counts of a run depend only on how many
whole blocks fit in it.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks
import tracing
from psed import analysis, harness, linear_detectors, model, pipeline, slicer, sparse_recovery
from psed.harness import SweepConfig
from psed.pipeline import PsedConfig


def block_seed(seed: int, block: int) -> int:
    """Master seed of one block; distinct for every (seed, block < 100000)."""
    return seed * 100_000 + block


@dataclass
class Block:
    """What one block did: outputs to compare, operations attempted and failed."""

    key: tuple
    ops: int
    failed: int


@dataclass(frozen=True)
class SweepWorkload:
    """`harness.run_sweep` on square QPSK systems, one sweep per support estimator."""

    name: str
    n: int
    detectors: tuple[str, ...]
    snr_db: tuple[float, ...]
    trials: int  # per block
    check_trials: int  # per cell in the check pass
    estimators: tuple[str, ...] = (sparse_recovery.LS,)
    sparsity: int | None = None  # None: the package default floor(0.15 n)
    asymptotic_trials: int = 0  # > 0: check LMMSE SER against the large-system value on this many trials
    min_samples: int = 100  # key-call timings per run, so p90 has 10 beyond it
    scale_to_reference: bool = True

    def tiny(self) -> "SweepWorkload":
        return dataclasses.replace(self, trials=1, check_trials=1, snr_db=self.snr_db[:1], min_samples=0)

    def inputs(self, seed: int, block: int) -> list[SweepConfig]:
        return [
            SweepConfig(
                n_r=self.n,
                n_t=self.n,
                constellation=model.QPSK,
                detectors=self.detectors,
                snr_db_grid=self.snr_db,
                trials=self.trials,
                master_seed=block_seed(seed, block),
                psed=PsedConfig(tol=0.0, sparsity=self.sparsity, estimator=est),
                kbest_m=15,
                workers=1,
            )
            for est in self.estimators
        ]

    def warm_up(self, configs) -> None:
        for c in configs:
            harness.run_sweep(dataclasses.replace(c, trials=1))

    def run_block(self, configs) -> Block:
        results = [harness.run_sweep(c) for c in configs]
        ops = sum(len(c.detectors) * len(c.snr_db_grid) * c.trials for c in configs)
        return Block(
            key=tuple(r.rows for r in results),
            ops=ops,
            failed=sum(len(r.flagged_trials) for r in results),
        )

    def latency_probe(self) -> tracing.LatencyProbe:
        """The key call: psed_detect under the package-default LS estimator."""
        if self.estimators == (sparse_recovery.LS,):
            return tracing.LatencyProbe(pipeline, "psed_detect")
        signature = inspect.signature(pipeline.psed_detect)

        def keep(args, kwargs):
            return signature.bind(*args, **kwargs).arguments["config"].estimator == sparse_recovery.LS

        return tracing.LatencyProbe(pipeline, "psed_detect", keep)

    def check(self, configs, key, work_dir) -> list[str]:
        """Re-run the block, then check every output of a larger sweep on its seed."""
        errs = []
        if key != self.run_block(configs).key:
            errs.append("a repeated block with the same seed gave different rows")
        calls = {"weight_matrix": [], "hard_slice": [], "mmp": [], "psed_detect": []}

        def capture(name):
            def make(fn):
                signature = inspect.signature(fn)

                def recorded(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    calls[name].append((bound.arguments, result))
                    return result

                return recorded

            return make

        with tracing.replaced_all([
            (linear_detectors, "weight_matrix", capture("weight_matrix")),
            (slicer, "hard_slice", capture("hard_slice")),
            (sparse_recovery, "mmp", capture("mmp")),
            (pipeline, "psed_detect", capture("psed_detect")),
        ]):
            results = [harness.run_sweep(dataclasses.replace(c, trials=self.check_trials)) for c in configs]

        points = model.make_constellation(model.QPSK).points
        for a, w in calls["weight_matrix"]:
            if a["kind"] == linear_detectors.LMMSE:
                errs += checks.check_lmmse_weights(a["H"], a["power"], a["noise_var"], w.W)
        for a, sliced in calls["hard_slice"]:
            errs += checks.check_hard_slice(a["values"], points, sliced.values)
        for a, rec in calls["mmp"]:
            errs += checks.check_mmp(
                a["H"], a["y_prime"], a["power"], a["K"], a["estimator"], a["error_var"], a["noise_var"], rec
            )
        for a, out in calls["psed_detect"]:
            errs += checks.check_rerun(a["y"], a["H"], a["power"], a["noise_var"], a["constellation"], a["config"], out)
        for i, r in enumerate(results):
            errs += checks.check_ser_order(r.rows)
            errs += checks.check_csv_roundtrip(r, os.path.join(work_dir, f"roundtrip-{os.getpid()}-{i}.csv"))
        if self.asymptotic_trials:
            lmmse = dataclasses.replace(configs[0], detectors=(harness.LMMSE,), trials=self.asymptotic_trials)
            errs += checks.check_asymptotic_ser(harness.run_sweep(lmmse).rows)
        if not calls["psed_detect"] or not calls["mmp"]:
            errs.append("the check pass captured no psed_detect or mmp call")
        return sorted(set(errs))


@dataclass(frozen=True)
class RipWorkload:
    """Per channel: exhaustive isometry constant, then noiseless oracle MMP."""

    name: str
    n_r: int = 512
    n_t: int = 20
    K: int = 2
    L: int = 2
    channels: int = 3
    min_samples: int = 100
    # Its time goes to large allocations and batched eigen-solves, which the
    # small-call reference kernel does not track (README: scaling widened
    # the spread from 5.3% to 7.1%), so its times are reported as measured.
    scale_to_reference: bool = False

    def tiny(self) -> "RipWorkload":
        return dataclasses.replace(self, channels=1, min_samples=0)

    def inputs(self, seed: int, block: int) -> list[tuple[np.ndarray, np.ndarray]]:
        out = []
        for i in range(self.channels):
            H = model.generate_channel(self.n_r, self.n_t, model.rng_stream(block_seed(seed, block), "perfbench-rip", i))
            rng = np.random.default_rng([block_seed(seed, block), i, 2015])
            e = np.zeros(self.n_t, dtype=np.complex128)
            support = rng.choice(self.n_t, size=self.K, replace=False)
            e[support] = rng.standard_normal(self.K) + 1j * rng.standard_normal(self.K)
            out.append((H, e))
        return out

    def _one(self, H, e):
        estimate = analysis.rip_constant(H, self.K + self.L)
        recovery = sparse_recovery.mmp(H, H @ e, 1.0, K=self.K, L=self.L)
        key = (estimate.delta, estimate.subsets_checked, recovery.support.indices, recovery.e_hat.tobytes())
        return estimate, recovery, key

    def warm_up(self, channels) -> None:
        self._one(*channels[0])

    def run_block(self, channels) -> Block:
        return Block(key=tuple(self._one(H, e)[2] for H, e in channels), ops=len(channels), failed=0)

    def latency_probe(self) -> tracing.LatencyProbe:
        return tracing.LatencyProbe(analysis, "rip_constant")

    def check(self, channels, key, work_dir) -> list[str]:
        errs = []
        threshold = checks.exact_recovery_threshold(self.K, self.L)
        fresh = []
        for H, e in channels:
            estimate, recovery, fresh_key = self._one(H, e)
            fresh.append(fresh_key)
            errs += checks.check_rip(H, self.K + self.L, estimate)
            if estimate.delta < threshold:
                errs += checks.check_oracle(e, recovery)
        if key != tuple(fresh):
            errs.append("a repeated block with the same seed gave different outputs")
        return sorted(set(errs))


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="ser32",
            n=32,
            detectors=(harness.MF, harness.LMMSE, harness.PSED_MF, harness.PSED_LMMSE, harness.KBEST),
            snr_db=(6.0, 10.0, 14.0, 20.0),
            trials=5,
            check_trials=20,
            sparsity=4,
        ),
        SweepWorkload(
            name="psed128",
            n=128,
            detectors=(harness.LMMSE, harness.PSED_LMMSE),
            snr_db=(10.0, 12.0),
            trials=1,
            check_trials=6,
            estimators=(sparse_recovery.LS, sparse_recovery.LMMSE),
            asymptotic_trials=100,
        ),
        RipWorkload(name="rip512"),
    )
}


def ref_kernel_ms(reps: int = 1) -> float:
    """Median of `reps` timings of a fixed numpy kernel owned by the benchmark.

    50 complex 32x32 Gram + solve + nearest-point argmin calls on fixed
    inputs (~2.6 ms): it tracks the machine's speed for the small-call work
    of the sweeps, and no change to the package can move it. One timing
    between short blocks tracks the speed better than several timings
    between long blocks.
    """
    rng = np.random.default_rng(20151204)
    A = (rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))) / 8
    b = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    pts = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
    eye = np.eye(32)
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(50):
            AH = A.conj().T
            x = np.linalg.solve(AH @ A + eye, AH @ b)
            np.argmin(np.abs(x[:, None] - pts[None, :]), axis=1)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3
