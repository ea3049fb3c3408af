"""Command-line front end: sweeps, closed-form curves, complexity, RIP.

Configuration comes from an optional key=value text file plus CLI flags
named after the same keys; a flag always wins over the file. Exit codes:
0 success, 2 configuration error (an output that cannot be written
included), 3 numerical failure (a flagged-trial log is written next to
the output in that case).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import analysis, harness, model
from .errors import ConfigurationError, PsedError
from .harness import SweepConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
NUMERICAL_FAILURES = (ArithmeticError, np.linalg.LinAlgError)  # ArithmeticError covers SingularMatrixError


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigurationError(f"expected a comma-separated list of numbers, got {text!r}") from exc


def _parse_detectors(text: str) -> tuple[str, ...]:
    return tuple(part.strip().upper() for part in text.split(",") if part.strip())


# Every sweep key: the SweepConfig field it sets ("psed.<field>" for a PsedConfig
# field), the parser of its text value, and its flag help. A key not given takes
# the dataclass default.
CONFIG_KEYS = {
    "n_r": ("n_r", int, "receive dimension"),
    "n_t": ("n_t", int, "transmit dimension"),
    "constellation": ("constellation", str.upper, "BPSK or QPSK"),
    "detectors": ("detectors", _parse_detectors, "comma-separated detector list"),
    "snr_db_grid": ("snr_db_grid", _parse_float_list, "comma-separated SNR grid in dB"),
    "trials": ("trials", int, "Monte Carlo trials per (detector, SNR) cell"),
    "master_seed": ("master_seed", int, "seed of all trial substreams"),
    "psed.K": ("psed.sparsity", int, "recovery sparsity budget"),
    "psed.L": ("psed.branch", int, "children per search path"),
    "psed.estimator": ("psed.estimator", str.upper, "LS or LMMSE support-restricted estimator"),
    "psed.max_paths": ("psed.max_paths", int, "path cap per search layer"),
    "kbest.m": ("kbest_m", int, "K-best survivors per layer"),
    "workers": ("workers", int, "parallel worker processes"),
    "output": ("output", str, "CSV output path"),
}


def parse_config_file(path: str) -> dict[str, str]:
    """Read `key = value` lines; '#' starts a comment, blank lines allowed, a key at most once."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}  # the line that gave each key
    try:
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}; known keys: {', '.join(CONFIG_KEYS)}")
        if key in lines:
            raise ConfigurationError(f"{path}:{lineno}: key {key!r} is given twice, at lines {lines[key]} and {lineno}")
        values[key], lines[key] = value, lineno
    return values


def build_sweep_config(args: argparse.Namespace) -> SweepConfig:
    """Merge defaults, config file, and CLI flags (in that order)."""
    values = parse_config_file(args.config) if args.config else {}
    values.update({key: flag for key in CONFIG_KEYS if (flag := getattr(args, key)) is not None})

    fields: dict[str, object] = {}
    psed_fields: dict[str, object] = {}
    try:
        for key, text in values.items():
            target, parse, _ = CONFIG_KEYS[key]
            group, _, name = target.rpartition(".")
            (psed_fields if group else fields)[name] = parse(text)
    except ValueError as exc:
        raise ConfigurationError(f"bad configuration value: {exc}") from exc
    default = SweepConfig()
    return dataclasses.replace(default, psed=dataclasses.replace(default.psed, **psed_fields), **fields)


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    for key, (_, _, help_text) in CONFIG_KEYS.items():
        parser.add_argument(f"--{key}", dest=key, help=help_text)


def _write_flagged_log(path: str, flagged, error: str | None = None) -> None:
    lines = [f"numerical failure: {error}"] if error else []
    lines += [f"{detector},{snr_db:g},{trial}" for detector, snr_db, trial in flagged]
    harness.write_text(path, "".join(line + "\n" for line in lines))


def _emit_table(lines: list[str], output: str | None) -> None:
    """Write a header line and its rows to `output`, or print them when it is not given."""
    text = "\n".join(lines) + "\n"
    if output:
        harness.write_text(output, text)
        print(f"wrote {len(lines) - 1} rows to {output}")
    else:
        print(text, end="")


def _require_writable(path: str) -> None:
    """Raise PsedError now if `path` cannot be opened for writing; leave no file the check created."""
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise PsedError(f"cannot write {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _cmd_sweep(args: argparse.Namespace, mse_curves: bool) -> int:
    config = build_sweep_config(args)
    output = config.output or ("sweep-mse.csv" if mse_curves else "sweep-ser.csv")
    _require_writable(output)  # before the first trial, so a long sweep cannot lose its results
    log_path = output + ".flagged.log"
    try:
        result = harness.run_mse_curves(config) if mse_curves else harness.run_sweep(config)
    except NUMERICAL_FAILURES as exc:
        _write_flagged_log(log_path, (), error=str(exc))
        print(f"numerical failure: {exc} (log: {log_path})", file=sys.stderr)
        return EXIT_NUMERICAL
    harness.emit_csv(result, output)
    if result.flagged_trials:
        _write_flagged_log(log_path, result.flagged_trials)
        print(f"{len(result.flagged_trials)} flagged trials logged to {log_path}", file=sys.stderr)
    print(f"wrote {len(result.rows)} rows to {output}")
    return EXIT_OK


def _cmd_complexity(args: argparse.Namespace) -> int:
    detectors = _parse_detectors(args.detectors) if args.detectors else analysis.COMPLEXITY_DETECTORS
    lines = ["detector,n_r,n_t,K,L,total"]
    for det in detectors:
        report = analysis.complexity_count(det, args.n_r, args.n_t, K=args.K, L=args.L)
        lines.append(
            f"{det},{report.n_r},{report.n_t},"
            f"{report.K if report.K is not None else ''},"
            f"{report.L if report.L is not None else ''},{report.total}"
        )
    _emit_table(lines, args.output)
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    grid = _parse_float_list(args.snr_db_grid)
    beta = args.beta
    lines = ["snr_db,beta,sinr_infty,pe_bpsk,mse_conv_asymptotic,mse_psed_bound,mse_psed_closed_form"]
    for snr_db in grid:
        snr = model.db_to_linear(snr_db)
        sinr = analysis.asymptotic_sinr(snr, beta)
        pe = analysis.pe_bpsk(sinr)
        mse_conv = analysis.mse_conv_asymptotic(snr, beta)
        mse_bound = analysis.mse_psed_bound(snr, beta, pe) if pe * beta < 1 else float("nan")
        mse_floor = analysis.mse_psed_closed_form(snr, beta) if beta <= 1 else float("nan")
        lines.append(
            f"{snr_db:.10g},{beta:.10g},{sinr:.10g},{pe:.10g},"
            f"{mse_conv:.10g},{mse_bound:.10g},{mse_floor:.10g}"
        )
    _emit_table(lines, args.output)
    return EXIT_OK


def _cmd_rip(args: argparse.Namespace) -> int:
    if args.matrix:
        try:
            H = np.load(args.matrix)
        except (OSError, ValueError, EOFError) as exc:
            raise ConfigurationError(f"cannot load matrix {args.matrix}: {exc}") from exc
        if not isinstance(H, np.ndarray) or H.dtype.kind not in "biufc":
            raise ConfigurationError(f"{args.matrix} does not hold one numeric array")
    else:
        H = model.generate_channel(args.n_r, args.n_t, model.rng_stream(args.seed, "channel"))
    estimate = analysis.rip_constant(H, args.K)
    line = (
        f"K={estimate.K} delta={estimate.delta:.10g} "
        f"subsets_checked={estimate.subsets_checked} exhaustive={estimate.exhaustive}"
    )
    print(line)
    if args.output:
        harness.write_text(
            args.output,
            "K,delta,subsets_checked,exhaustive\n"
            f"{estimate.K},{estimate.delta:.10g},{estimate.subsets_checked},{estimate.exhaustive}\n",
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psed",
        description="Sparse-error-refined linear detection: Monte Carlo sweeps and analysis curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ser = sub.add_parser("sweep-ser", help="symbol-error-rate sweep over the SNR grid")
    _add_sweep_flags(ser)
    ser.set_defaults(run=lambda args: _cmd_sweep(args, mse_curves=False))

    mse = sub.add_parser("sweep-mse", help="BPSK MSE sweep with closed-form columns")
    _add_sweep_flags(mse)
    mse.set_defaults(run=lambda args: _cmd_sweep(args, mse_curves=True))

    comp = sub.add_parser("complexity", help="complex multiplication counts per detector")
    comp.set_defaults(run=_cmd_complexity)
    comp.add_argument("--n_r", type=int, required=True)
    comp.add_argument("--n_t", type=int, required=True)
    comp.add_argument("--K", type=int)
    comp.add_argument("--L", type=int)
    comp.add_argument(
        "--detectors", help=f"comma-separated subset of {','.join(analysis.COMPLEXITY_DETECTORS)}"
    )
    comp.add_argument("--output")

    ana = sub.add_parser("analyze", help="closed-form SINR/SER/MSE curves over an SNR grid")
    ana.set_defaults(run=_cmd_analyze)
    ana.add_argument("--snr_db_grid", default="6,8,10,12,14,16,18,20,22,24")
    ana.add_argument("--beta", type=float, default=1.0)
    ana.add_argument("--output")

    rip = sub.add_parser("rip", help="restricted isometry constant of a matrix")
    rip.set_defaults(run=_cmd_rip)
    rip.add_argument("--matrix", help=".npy file holding the matrix; omit to generate a channel")
    rip.add_argument("--n_r", type=int, default=16)
    rip.add_argument("--n_t", type=int, default=20)
    rip.add_argument("--seed", type=int, default=0)
    rip.add_argument("--K", type=int, required=True)
    rip.add_argument("--output")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PsedError as exc:  # configuration, dimension, domain, capacity and I/O errors
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
