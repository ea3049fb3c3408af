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
from dataclasses import dataclass, field

import numpy as np

from . import analysis, baselines, linear_detectors, model, pipeline
from .errors import ConfigurationError, PsedError, require_count, require_real
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


@dataclass(frozen=True)
class SweepConfig:
    """Everything one sweep needs; every field maps to a config-file key and is checked when built."""

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

    def __post_init__(self):
        for name in ("n_r", "n_t", "trials", "workers", "kbest_m"):
            require_count(name, getattr(self, name))
        require_count("master_seed", self.master_seed, low=0)
        if not self.snr_db_grid:
            raise ConfigurationError("snr_db_grid must be non-empty")
        for snr_db in self.snr_db_grid:  # +inf is a noiseless cell
            require_real("snr_db_grid", snr_db, "(-inf, inf]", ConfigurationError)
        if not self.detectors:
            raise ConfigurationError("detector list must be non-empty")
        for det in self.detectors:
            if det not in SWEEP_DETECTORS:
                raise ConfigurationError(f"unknown detector {det!r}; expected one of {SWEEP_DETECTORS}")
        # A repeat would run its cells again and write duplicate CSV rows.
        for name, values in (("detectors", self.detectors), ("snr_db_grid", self.snr_db_grid)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigurationError(f"{name} lists {value!r} twice")
        make_constellation(self.constellation)
        if ML in self.detectors and self.n_t > (cap := baselines.ml_max_dim(self.constellation)):
            raise ConfigurationError(
                f"ML detection infeasible: n_t={self.n_t} exceeds the cap of {cap} for {self.constellation}"
            )
        if KBEST in self.detectors:
            baselines.require_kbest_shape(self.n_r, self.n_t)
        self.psed.bound_sparsity(self.n_t)


@dataclass(frozen=True)
class SweepRow:
    """One (detector, SNR) cell of a sweep and one line of its CSV.

    The fields, in order, are the CSV columns. The two closed-form columns
    are written only when some row carries them, and a None as ``nan``.
    """

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


_CSV_COLUMNS = dataclasses.fields(SweepRow)
_CSV_CORE = sum(c.default is dataclasses.MISSING for c in _CSV_COLUMNS)  # columns every CSV carries
_CSV_TYPES = {"str": str, "int": int, "float": float, "float | None": float}  # cell type by annotation


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

    H, s and the unit noise are drawn once, and `transmit` scales the noise
    to every SNR of the grid, so each cell sees the observation it would see
    in a sweep of its own. When PSED-X and X are both swept, X's row is read
    off PSED-X's first stage: the same weights, filter output and hard slice.
    K-best and ML search the whole stack of observations in one call each.
    Rows come detector-major, in the order of config.detectors.
    """
    constellation = make_constellation(config.constellation)
    seed = config.master_seed
    H = model.generate_channel(config.n_r, config.n_t, rng_stream(seed, "channel", trial))
    s = model.draw_symbols(constellation, config.n_t, rng_stream(seed, "symbols", trial))
    noise_vars = [POWER / db_to_linear(snr_db) for snr_db in config.snr_db_grid]
    ys = model.transmit(H, s, POWER, noise_vars, rng_stream(seed, "noise", trial)).y
    outcomes = {}
    for base, detector in PSED_NAMES.items():
        if detector in config.detectors:
            psed_cfg = dataclasses.replace(config.psed, base_detector=base)
            outs = [pipeline.psed_detect(y, H, POWER, nv, constellation, psed_cfg) for y, nv in zip(ys, noise_vars)]
            outcomes[detector] = [_score(s, o.s_final.values, o.s_doublehat, o.recovery_failed) for o in outs]
            if base in config.detectors:
                outcomes[base] = [_score(s, o.s_hat.values, o.s_tilde) for o in outs]
    for detector in config.detectors:
        if detector in (KBEST, ML):
            if detector == KBEST:
                decided = baselines.kbest_detect(ys, H, POWER, constellation, config.kbest_m)
            else:
                decided = baselines.ml_detect(ys, H, POWER, constellation)
            outcomes[detector] = [_score(s, d, d) for d in decided]
        elif detector not in outcomes:  # a linear detector swept without its PSED refinement
            weights = (linear_detectors.weight_matrix(H, detector, POWER, nv) for nv in noise_vars)
            estimates = [linear_detectors.detect(w, y) for w, y in zip(weights, ys)]
            outcomes[detector] = [_score(s, hard_slice(e, constellation).values, e) for e in estimates]
    return [row for detector in config.detectors for row in outcomes[detector]]


def _aggregate(outcomes) -> tuple[int, float, list[int]]:
    """Fold one cell's per-trial outcomes, in trial order, into (errors, mse, flagged trials)."""
    errors, sq_errs, flagged = zip(*outcomes)
    return int(np.sum(errors)), float(np.mean(sq_errs)), [t for t, fl in enumerate(flagged) if fl]


def run_sweep(config: SweepConfig) -> SweepResult:
    """SER/MSE sweep over the (detector, SNR) grid.

    With workers > 1 one process pool runs chunks of trials, each trial
    through every cell, and returns them in trial order.
    """
    trials = range(config.trials)
    if config.workers == 1:
        per_trial = [_run_trial(config, t) for t in trials]
    else:
        # Imported here: the pool machinery costs every `import psed` ~20 ms, and only a pool needs it.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

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
    beta = config.n_t / config.n_r
    closed_forms = {}  # evaluated before the first trial, so a refused SNR point costs no sweep
    for snr_db in config.snr_db_grid:
        snr = db_to_linear(snr_db)
        closed_forms[float(snr_db)] = dict(
            mse_conv_asymptotic=analysis.mse_conv_asymptotic(snr, beta),
            mse_psed_closed_form=analysis.mse_psed_closed_form(snr, beta) if beta <= 1.0 else None,
        )
    base = run_sweep(config)
    rows = [dataclasses.replace(row, **closed_forms[row.snr_db]) for row in base.rows]
    return SweepResult(rows=tuple(rows), flagged_trials=base.flagged_trials)


# ---------------------------------------------------------------------------
# CSV round-tripping


def _format_value(value, annotation: str) -> str:
    if value is None:
        return "nan"
    value = _CSV_TYPES[annotation](value)
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def _parse_value(text: str, annotation: str):
    value = _CSV_TYPES[annotation](text)
    return None if annotation == "float | None" and math.isnan(value) else value


def write_text(path, text: str) -> None:
    """Write `text` to `path`; a path that cannot be written raises PsedError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PsedError(f"cannot write {path}: {exc}") from exc


def emit_csv(result: SweepResult, path) -> None:
    """Write one row per (detector, SNR) cell; floats carry 10 significant digits."""
    columns = _CSV_COLUMNS if result.has_analytic_columns else _CSV_COLUMNS[:_CSV_CORE]
    lines = [",".join(c.name for c in columns)]
    lines += [",".join(_format_value(getattr(row, c.name), c.type) for c in columns) for row in result.rows]
    write_text(path, "\n".join(lines) + "\n")


def read_csv(path) -> SweepResult:
    """Parse a file produced by emit_csv back into a SweepResult.

    The header must start with the columns every sweep writes. The
    closed-form pair is read only when it is all that follows, and a
    ``nan`` there (a closed form undefined for the row's shape) reads back
    as None; any other trailing columns are ignored. A missing file, a
    short row or a cell that does not parse raises PsedError naming the
    file and the line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, ln) for n, ln in enumerate(fh.read().splitlines(), start=1) if ln]
    except OSError as exc:
        raise PsedError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise PsedError(f"{path} is empty")
    header = tuple(lines[0][1].split(","))
    names = tuple(c.name for c in _CSV_COLUMNS)
    if header[:_CSV_CORE] != names[:_CSV_CORE]:
        raise PsedError(f"{path} does not carry the expected sweep header")
    columns = _CSV_COLUMNS if header == names else _CSV_COLUMNS[:_CSV_CORE]
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) < len(columns):
            raise PsedError(f"{path}:{lineno}: expected {len(columns)} cells, got {len(parts)}")
        try:
            rows.append(SweepRow(**{c.name: _parse_value(parts[i], c.type) for i, c in enumerate(columns)}))
        except ValueError as exc:
            raise PsedError(f"{path}:{lineno}: {exc}") from exc
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
