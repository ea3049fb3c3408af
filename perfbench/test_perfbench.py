"""Self-tests of the benchmark.

Each check must fail on a deliberately corrupted output, a tiny pass of
every workload must run clean, and the command must print the metrics
that BENCHMARK.json names. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from psed import (  # noqa: E402
    analysis,
    generate_channel,
    harness,
    make_constellation,
    mmp,
    psed_detect,
    rng_stream,
    transmit,
    weight_matrix,
)
from psed.pipeline import PsedConfig  # noqa: E402
from psed.sparse_recovery import LMMSE, LS, SupportSet  # noqa: E402

QPSK = make_constellation("QPSK")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_runs_clean(name, tmp_path):
    wl = workloads.WORKLOADS[name].tiny()
    inputs = wl.inputs(3, 0)
    wl.warm_up(inputs)
    block = wl.run_block(inputs)
    assert block.ops >= 1 and block.failed == 0
    assert wl.check(inputs, block.key, str(tmp_path)) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_changed_block_output_is_caught(name, tmp_path):
    wl = workloads.WORKLOADS[name].tiny()
    key = wl.run_block(wl.inputs(3, 1)).key
    assert wl.check(wl.inputs(3, 0), key, str(tmp_path)) != []


def _instance(seed=5, n=32, snr_db=12.0):
    H = generate_channel(n, n, rng_stream(seed, "channel"))
    s = QPSK.points[rng_stream(seed, "symbols").integers(0, 4, n)]
    noise_var = 10 ** (-snr_db / 10)
    return transmit(H, s, 1.0, noise_var, rng_stream(seed, "noise")), noise_var


@pytest.mark.parametrize("estimator", [LS, LMMSE])
def test_mmp_check_catches_perturbed_e_hat_and_wrong_support(estimator):
    inst, noise_var = _instance()
    out = psed_detect(inst.y, inst.H, 1.0, noise_var, QPSK, PsedConfig(tol=0.0, sparsity=4, estimator=estimator))
    rec = out.recovery
    args = (inst.H, out.y_prime, 1.0, 4, estimator, 2.0, noise_var)
    assert checks.check_mmp(*args, rec) == []

    e_hat = rec.e_hat.copy()
    e_hat[rec.support.indices[0]] += 1e-3
    assert checks.check_mmp(*args, dataclasses.replace(rec, e_hat=e_hat)) != []

    other = next(j for j in range(32) if j not in rec.support)
    wrong = SupportSet((other,) + rec.support.indices[1:])
    assert checks.check_mmp(*args, dataclasses.replace(rec, support=wrong)) != []
    short = SupportSet(rec.support.indices[1:])
    assert checks.check_mmp(*args, dataclasses.replace(rec, support=short)) != []


def test_rerun_check_catches_changed_s_final():
    inst, noise_var = _instance()
    config = PsedConfig(tol=0.0, sparsity=4)
    out = psed_detect(inst.y, inst.H, 1.0, noise_var, QPSK, config)
    assert checks.check_rerun(inst.y, inst.H, 1.0, noise_var, QPSK, config, out) == []
    values = out.s_final.values.copy()
    values[0] = -values[0]
    bad = dataclasses.replace(out, s_final=dataclasses.replace(out.s_final, values=values))
    assert checks.check_rerun(inst.y, inst.H, 1.0, noise_var, QPSK, config, bad) != []


def test_weight_and_slice_checks_catch_corruption():
    inst, noise_var = _instance()
    W = weight_matrix(inst.H, "LMMSE", 1.0, noise_var).W
    assert checks.check_lmmse_weights(inst.H, 1.0, noise_var, W) == []
    assert checks.check_lmmse_weights(inst.H, 1.0, noise_var, W * (1 + 1e-6)) != []
    assert checks.check_lmmse_weights(inst.H, 1.0, 2 * noise_var, W) != []

    values = W.conj().T @ inst.y
    sliced = checks.nearest_points(values, QPSK.points)
    assert checks.check_hard_slice(values, QPSK.points, sliced) == []
    sliced[3] = -sliced[3]
    assert checks.check_hard_slice(values, QPSK.points, sliced) != []


def test_rip_check_catches_shifted_delta():
    H = generate_channel(64, 10, rng_stream(2, "channel"))
    est = analysis.rip_constant(H, 4)
    assert checks.check_rip(H, 4, est) == []
    assert checks.check_rip(H, 4, dataclasses.replace(est, delta=est.delta + 1e-6)) != []
    assert checks.check_rip(H, 4, dataclasses.replace(est, subsets_checked=est.subsets_checked - 1)) != []
    assert checks.check_rip(H, 4, dataclasses.replace(est, exhaustive=False)) != []


def test_oracle_check_catches_wrong_recovery():
    wl = workloads.WORKLOADS["rip512"].tiny()
    (H, e), = wl.inputs(4, 0)
    rec = mmp(H, H @ e, 1.0, K=2, L=2)
    assert checks.check_oracle(e, rec) == []
    assert checks.check_oracle(e, dataclasses.replace(rec, e_hat=rec.e_hat + 1e-6)) != []
    moved = np.roll(e, 1)
    assert checks.check_oracle(moved, rec) != []


def _ser32_rows(snr_db):
    wl = dataclasses.replace(workloads.WORKLOADS["ser32"], snr_db=(snr_db,))
    return harness.run_sweep(dataclasses.replace(wl.inputs(8, 0)[0], trials=wl.check_trials)).rows


def test_ser_order_check_catches_swapped_detectors():
    rows = _ser32_rows(10.0)
    assert checks.check_ser_order(rows) == []
    by_det = {r.detector: r for r in rows}
    swapped = [
        dataclasses.replace(r, symbol_errors=by_det["PSED-LMMSE"].symbol_errors) if r.detector == "LMMSE"
        else dataclasses.replace(r, symbol_errors=by_det["LMMSE"].symbol_errors) if r.detector == "PSED-LMMSE"
        else r
        for r in rows
    ]
    assert checks.check_ser_order(swapped) != []


def test_asymptotic_band():
    assert checks.qpsk_ser_prediction(12.0, 1.0) == pytest.approx(0.0600, abs=5e-4)
    wl = workloads.WORKLOADS["psed128"]
    config = dataclasses.replace(wl.inputs(1, 0)[0], detectors=("LMMSE",), trials=wl.asymptotic_trials)
    rows = harness.run_sweep(config).rows
    assert checks.check_asymptotic_ser(rows) == []
    shifted = [dataclasses.replace(r, ser=r.ser + 0.02) for r in rows]
    assert checks.check_asymptotic_ser(shifted) != []


def test_csv_check_catches_changed_rows(tmp_path, monkeypatch):
    result = harness.SweepResult(rows=_ser32_rows(14.0))
    assert checks.check_csv_roundtrip(result, str(tmp_path / "a.csv")) == []
    read = harness.read_csv

    def lossy(path):
        back = read(path)
        return dataclasses.replace(back, rows=(dataclasses.replace(back.rows[0], mse=back.rows[0].mse * 1.001),) + back.rows[1:])

    monkeypatch.setattr(harness, "read_csv", lossy)
    assert checks.check_csv_roundtrip(result, str(tmp_path / "b.csv")) != []
    assert not (tmp_path / "b.csv").exists()


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    done = _run(ROOT, "--workload", "ser32", "--seed", "2", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert set(run.END_TO_END if trace == "0" else run.PER_LAYER) == {m["name"] for m in declared}


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run(tmp_path, "--workload", "ser32", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout
