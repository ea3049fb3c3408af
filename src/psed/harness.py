"""Monte Carlo sweep engine and CSV round-tripping.

Sweeps run trial-major: each trial draws its channel, symbols and noise
from substreams keyed by (master_seed, purpose, trial index) and runs
through every (detector, SNR) cell, so every cell sees the same instance
at a given trial index and results are bit-identical for a fixed master
seed no matter how trials are scheduled across workers. A linear detector
swept next to its PSED refinement takes its row from the refinement's
first stage instead of recomputing it.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from . import analysis, baselines, linear_detectors, model, pipeline
from .errors import ConfigurationError, PsedError
from .linear_detectors import LMMSE, MF
from .model import db_to_linear, make_constellation, rng_stream
from .pipeline import PSED_NAMES, PsedConfig
from .slicer import hard_slice

POWER = 1.0  # transmit power is pinned; SNR is swept through the noise variance

PSED_MF = PSED_NAMES[MF]
PSED_LMMSE = PSED_NAMES[LMMSE]
KBEST = "KBEST"
ML = "ML"
SWEEP_DETECTORS = (MF, LMMSE, PSED_MF, PSED_LMMSE, KBEST, ML)

CSV_HEADER = ("detector", "n_r", "n_t", "snr_db", "trials", "symbol_errors", "ser", "mse", "seed")
CSV_ANALYTIC_COLUMNS = ("mse_conv_asymptotic", "mse_psed_closed_form")


@dataclass(frozen=True)
class SweepConfig:
    """Everything one sweep needs; every field maps to a config-file key."""

    n_r: int = 32
    n_t: int = 32
    constellation: str = model.QPSK
    detectors: tuple[str, ...] = (LMMSE, PSED_LMMSE)
    snr_db_grid: tuple[float, ...] = (6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0)
    trials: int = 1000
    master_seed: int = 1
    psed: PsedConfig = field(default_factory=lambda: PsedConfig(tol=0.0))
    kbest_m: int = 15
    output: str | None = None
    workers: int = 1

    def validate(self) -> None:
        if not self.snr_db_grid:
            raise ConfigurationError("snr_db_grid must be non-empty")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if self.n_r < 1 or self.n_t < 1:
            raise ConfigurationError(f"dimensions must be >= 1, got ({self.n_r}, {self.n_t})")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if not self.detectors:
            raise ConfigurationError("detector list must be non-empty")
        for det in self.detectors:
            if det not in SWEEP_DETECTORS:
                raise ConfigurationError(f"unknown detector {det!r}; expected one of {SWEEP_DETECTORS}")
        make_constellation(self.constellation)
        if ML in self.detectors:
            # Refuse up front rather than mid-sweep.
            cap = baselines.ml_max_dim(self.constellation)
            if self.n_t > cap:
                raise ConfigurationError(
                    f"ML detection infeasible: n_t={self.n_t} exceeds max_dim={cap} for "
                    f"{self.constellation}"
                )
        if KBEST in self.detectors:
            if self.kbest_m < 1:
                raise ConfigurationError(f"kbest_m must be >= 1, got {self.kbest_m}")
            if self.n_r < self.n_t:
                raise ConfigurationError(
                    f"K-best needs n_r >= n_t, got ({self.n_r}, {self.n_t})"
                )
        self.psed.bound_sparsity(self.n_t)


@dataclass(frozen=True)
class SweepRow:
    detector: str
    n_r: int
    n_t: int
    snr_db: float
    trials: int
    symbol_errors: int
    ser: float
    mse: float
    seed: int
    mse_conv_asymptotic: float | None = None
    mse_psed_closed_form: float | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    flagged_trials: tuple[tuple[str, float, int], ...] = ()

    @property
    def has_analytic_columns(self) -> bool:
        return any(r.mse_conv_asymptotic is not None for r in self.rows)


def _score(s, decided, estimate, flagged: bool = False) -> tuple[int, float, bool]:
    """(symbol errors, squared error per stream, flagged) of one detector on one instance."""
    return int(np.count_nonzero(decided != s)), float(np.sum(np.abs(s - estimate) ** 2)) / s.size, flagged


def _run_trial(config: SweepConfig, trial: int) -> list[tuple[int, float, bool]]:
    """One instance through every (detector, SNR) cell; (errors, squared error, flagged) per row.

    H and s are drawn once, and every SNR's `transmit` draws the trial's unit
    noise from the same substream, so each cell sees the observation it would
    see in a sweep of its own. When PSED-X and X are both swept, X's row is
    read off PSED-X's first stage: the same weights, filter output and hard slice.
    """
    constellation = make_constellation(config.constellation)
    seed = config.master_seed
    H = model.generate_channel(config.n_r, config.n_t, rng_stream(seed, "channel", trial))
    s = model.draw_symbols(constellation, config.n_t, rng_stream(seed, "symbols", trial))
    psed_configs = {
        detector: dataclasses.replace(config.psed, base_detector=base)
        for base, detector in PSED_NAMES.items()
        if detector in config.detectors
    }
    noise = rng_stream(seed, "noise", trial)
    noise_start = noise.bit_generator.state
    per_snr = []
    for snr_db in config.snr_db_grid:
        noise_var = POWER / db_to_linear(snr_db)
        noise.bit_generator.state = noise_start  # rewound: every SNR draws the trial's unit noise
        y = model.transmit(H, s, POWER, noise_var, noise).y
        cell = {}
        for detector, psed_cfg in psed_configs.items():
            out = pipeline.psed_detect(y, H, POWER, noise_var, constellation, psed_cfg)
            cell[detector] = _score(s, out.s_final.values, out.s_doublehat, out.recovery_failed)
            if psed_cfg.base_detector in config.detectors:
                cell[psed_cfg.base_detector] = _score(s, out.s_hat.values, out.s_tilde)
        for detector in config.detectors:
            if detector in cell:
                continue
            if detector in linear_detectors.DETECTOR_KINDS:
                weights = linear_detectors.weight_matrix(H, detector, POWER, noise_var)
                estimate = linear_detectors.detect(weights, y)
                decided = hard_slice(estimate, constellation).values
            elif detector == KBEST:
                decided = estimate = baselines.kbest_detect(y, H, POWER, constellation, config.kbest_m)
            else:
                decided = estimate = baselines.ml_detect(y, H, POWER, constellation)
            cell[detector] = _score(s, decided, estimate)
        per_snr.append(cell)
    return [cell[detector] for detector in config.detectors for cell in per_snr]


def _aggregate(outcomes) -> tuple[int, float, list[int]]:
    """Fold one cell's per-trial outcomes, in trial order, into (errors, mse, flagged trials)."""
    errors, sq_errs, flagged = zip(*outcomes)
    return int(np.sum(errors)), float(np.mean(sq_errs)), [t for t, fl in enumerate(flagged) if fl]


def run_sweep(config: SweepConfig) -> SweepResult:
    """SER/MSE sweep over the (detector, SNR) grid.

    With workers > 1 one process pool runs chunks of trials, each trial
    through every cell, and returns them in trial order.
    """
    config.validate()
    trials = range(config.trials)
    if config.workers == 1:
        per_trial = [_run_trial(config, t) for t in trials]
    else:
        chunk = max(1, math.ceil(config.trials / (config.workers * 4)))
        with ProcessPoolExecutor(max_workers=config.workers, mp_context=get_context("spawn")) as pool:
            per_trial = list(pool.map(_run_trial, [config] * config.trials, trials, chunksize=chunk))

    cells = [(detector, float(snr_db)) for detector in config.detectors for snr_db in config.snr_db_grid]
    rows = []
    flagged_all = []
    for (detector, snr_db), cell in zip(cells, zip(*per_trial)):
        total_errors, mse, flagged = _aggregate(cell)
        rows.append(
            SweepRow(
                detector=detector,
                n_r=config.n_r,
                n_t=config.n_t,
                snr_db=snr_db,
                trials=config.trials,
                symbol_errors=total_errors,
                ser=total_errors / (config.n_t * config.trials),
                mse=mse,
                seed=config.master_seed,
            )
        )
        flagged_all.extend((detector, snr_db, t) for t in flagged)
    return SweepResult(rows=tuple(rows), flagged_trials=tuple(flagged_all))


def run_mse_curves(config: SweepConfig) -> SweepResult:
    """MSE sweep with the closed-form curves attached to every row.

    The closed forms model BPSK detection, so the sweep refuses other
    constellations.
    """
    if config.constellation != model.BPSK:
        raise ConfigurationError(
            f"MSE curve sweeps are defined for BPSK, got {config.constellation}"
        )
    base = run_sweep(config)
    beta = config.n_t / config.n_r
    rows = []
    for row in base.rows:
        snr = db_to_linear(row.snr_db)
        rows.append(
            dataclasses.replace(
                row,
                mse_conv_asymptotic=analysis.mse_conv_asymptotic(snr, beta),
                mse_psed_closed_form=(
                    analysis.mse_psed_closed_form(snr, beta) if beta <= 1.0 else None
                ),
            )
        )
    return SweepResult(rows=tuple(rows), flagged_trials=base.flagged_trials)


# ---------------------------------------------------------------------------
# CSV round-tripping


def _format_value(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def emit_csv(result: SweepResult, path) -> None:
    """Write one row per (detector, SNR) cell; floats carry 10 significant digits."""
    header = CSV_HEADER + (CSV_ANALYTIC_COLUMNS if result.has_analytic_columns else ())
    lines = [",".join(header)]
    for row in result.rows:
        values = [
            row.detector,
            row.n_r,
            row.n_t,
            float(row.snr_db),
            row.trials,
            row.symbol_errors,
            float(row.ser),
            float(row.mse),
            row.seed,
        ]
        if result.has_analytic_columns:
            values.extend([row.mse_conv_asymptotic, row.mse_psed_closed_form])
        lines.append(",".join(_format_value(v) for v in values))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise PsedError(f"cannot write CSV to {path}: {exc}") from exc


def _parse_analytic(text: str) -> float | None:
    value = float(text)
    return None if math.isnan(value) else value


def read_csv(path) -> SweepResult:
    """Parse a file produced by emit_csv back into a SweepResult.

    An analytic column written as ``nan`` (a closed form undefined for the
    row's shape) reads back as None.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise PsedError(f"{path} is empty")
    header = tuple(lines[0].split(","))
    if header[: len(CSV_HEADER)] != CSV_HEADER:
        raise PsedError(f"{path} does not carry the expected sweep header")
    analytic = header[len(CSV_HEADER) :] == CSV_ANALYTIC_COLUMNS
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        row = SweepRow(
            detector=parts[0],
            n_r=int(parts[1]),
            n_t=int(parts[2]),
            snr_db=float(parts[3]),
            trials=int(parts[4]),
            symbol_errors=int(parts[5]),
            ser=float(parts[6]),
            mse=float(parts[7]),
            seed=int(parts[8]),
        )
        if analytic:
            row = dataclasses.replace(
                row,
                mse_conv_asymptotic=_parse_analytic(parts[9]),
                mse_psed_closed_form=_parse_analytic(parts[10]),
            )
        rows.append(row)
    return SweepResult(rows=tuple(rows))


def snr_at_ser(snr_db: list[float], ser: list[float], target: float) -> float | None:
    """SNR (dB) where the SER curve crosses `target`, log-linear interpolation.

    Returns None when the curve never crosses the target on the grid.
    Zero-SER cells are excluded since they carry no log-domain position.
    """
    pts = [(x, s) for x, s in zip(snr_db, ser) if s > 0]
    for (x1, s1), (x2, s2) in zip(pts, pts[1:]):
        lo, hi = min(s1, s2), max(s1, s2)
        if lo <= target <= hi and s1 != s2:
            t = (math.log10(target) - math.log10(s1)) / (math.log10(s2) - math.log10(s1))
            return x1 + t * (x2 - x1)
    return None
