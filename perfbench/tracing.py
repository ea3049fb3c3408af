"""Spans around the package's public functions, recorded from outside.

The benchmark swaps each traced function for a wrapper in every `psed`
module that holds a reference to it (the package mixes `module.f` calls
with `from .module import f`), and swaps the originals back afterwards.
Spans are kept in memory and written out as JSON lines when the run ends;
the per-layer metrics are computed from the written file.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

from psed import analysis, baselines, harness, linear_detectors, model, pipeline, slicer, sparse_recovery

# (module, function) pairs whose calls become spans, named "<module>.<function>".
TRACED = (
    (harness, "run_sweep"),
    (model, "generate_channel"),
    (model, "draw_symbols"),
    (model, "transmit"),
    (linear_detectors, "weight_matrix"),
    (linear_detectors, "detect"),
    (slicer, "hard_slice"),
    (pipeline, "psed_detect"),
    (pipeline, "sparse_transform"),
    (sparse_recovery, "mmp"),
    (baselines, "kbest_detect"),
    (analysis, "rip_constant"),
)
# A trial starts with its channel draw (sweeps) or its isometry constant (rip512).
TRIAL_STARTS = {"model.generate_channel", "analysis.rip_constant"}


def span_name(module, fn_name: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{fn_name}"


@contextmanager
def replaced(module, fn_name: str, make_wrapper):
    """Replace module.fn_name, and every psed alias of it, by make_wrapper(original)."""
    original = getattr(module, fn_name)
    wrapper = make_wrapper(original)
    sites = [
        (mod, attr)
        for name, mod in list(sys.modules.items())
        if name == "psed" or name.startswith("psed.")
        for attr, value in list(vars(mod).items())
        if value is original
    ]
    for mod, attr in sites:
        setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr in sites:
            setattr(mod, attr, original)


@contextmanager
def replaced_all(pairs):
    """Apply several `replaced` contexts; pairs is (module, fn_name, make_wrapper)."""
    if not pairs:
        yield
        return
    (module, fn_name, make), rest = pairs[0], pairs[1:]
    with replaced(module, fn_name, make), replaced_all(rest):
        yield


class LatencyProbe:
    """Times one public function; `keep(args, kwargs)` selects which calls count."""

    def __init__(self, module, fn_name: str, keep=None):
        self.module, self.fn_name, self.keep = module, fn_name, keep
        self.samples: list[float] = []

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            if self.keep is None or self.keep(args, kwargs):
                self.samples.append(perf_counter() - t0)
            return result

        return timed

    @contextmanager
    def installed(self):
        with replaced(self.module, self.fn_name, self._wrap):
            yield


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, trial, block."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trial = -1
        self.block = None
        self._symbols = None  # true symbols of the current trial, from transmit
        self._signatures: dict = {}

    def _bound(self, fn, args, kwargs) -> dict:
        if fn not in self._signatures:
            self._signatures[fn] = inspect.signature(fn)
        return self._signatures[fn].bind(*args, **kwargs).arguments

    def _attrs(self, name, fn, args, kwargs, result) -> dict:
        if name == "model.transmit":
            self._symbols = result.s
        elif name == "pipeline.psed_detect":
            config = self._bound(fn, args, kwargs)["config"]
            s = self._symbols
            first = result.s_hat.values != s
            final = result.s_final.values != s
            return {
                "estimator": config.estimator,
                "first": int(first.sum()),
                "fixed": int((first & ~final).sum()),
                "introduced": int((~first & final).sum()),
                "flagged": int(result.recovery_failed),
            }
        elif name == "sparse_recovery.mmp":
            a = self._bound(fn, args, kwargs)
            return {
                "estimator": a.get("estimator", sparse_recovery.LS),
                "paths": result.paths_explored,
                "KL": a["K"] * a["L"],
            }
        elif name == "analysis.rip_constant":
            return {"subsets": result.subsets_checked}
        elif name == "harness.run_sweep":
            c = self._bound(fn, args, kwargs)["config"]
            return {"trials": len(c.detectors) * len(c.snr_db_grid) * c.trials}
        return {}

    def _wrap(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                if name in TRIAL_STARTS:
                    self.trial += 1
                parent = self._stack[-1] if self._stack else -1
                idx = len(self.spans)
                self.spans.append({})
                self._stack.append(idx)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    self._stack.pop()
                self.spans[idx] = {
                    "id": idx,
                    "name": name,
                    "start": t0,
                    "end": t1,
                    "parent": parent,
                    "trial": self.trial,
                    "block": self.block,
                    "attrs": self._attrs(name, fn, args, kwargs, result),
                }
                return result

            return traced

        return make

    @contextmanager
    def installed(self, block):
        self.block = block
        with replaced_all([(m, f, self._wrap(span_name(m, f))) for m, f in TRACED]):
            yield

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _block_metrics(spans: list[dict], by_id: dict) -> dict[str, float]:
    """Per-layer figures for the spans of one block."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + dur[s["id"]]

    def named(name, pred=None):
        return [s for s in spans if s["name"] == name and (pred is None or pred(s))]

    def mean_ms(group):
        return 1e3 * sum(dur[s["id"]] for s in group) / len(group)

    out = {}
    channels = named("model.generate_channel")
    if channels and named("model.transmit"):
        model_time = sum(dur[s["id"]] for s in spans if s["name"] in
                         ("model.generate_channel", "model.draw_symbols", "model.transmit"))
        out["model.instance_ms"] = 1e3 * model_time / len(channels)
    for name, metric in (
        ("linear_detectors.weight_matrix", "linear_detectors.weight_matrix_ms"),
        ("linear_detectors.detect", "linear_detectors.detect_ms"),
        ("slicer.hard_slice", "slicer.hard_slice_ms"),
        ("pipeline.sparse_transform", "pipeline.sparse_transform_ms"),
        ("baselines.kbest_detect", "baselines.kbest_ms"),
        ("analysis.rip_constant", "analysis.rip_constant_ms"),
    ):
        group = named(name)
        if group:
            out[metric] = mean_ms(group)

    psed = named("pipeline.psed_detect")
    if psed:
        n = len(psed)
        out["pipeline.self_ms"] = 1e3 * sum(dur[s["id"]] - child.get(s["id"], 0.0) for s in psed) / n
        first = sum(s["attrs"]["first"] for s in psed)
        fixed = sum(s["attrs"]["fixed"] for s in psed)
        out["pipeline.first_stage_errors"] = first / n
        out["pipeline.errors_fixed"] = fixed / n
        out["pipeline.errors_introduced"] = sum(s["attrs"]["introduced"] for s in psed) / n
        out["pipeline.flagged_trials"] = sum(s["attrs"]["flagged"] for s in psed) / n
        if first:
            out["pipeline.fix_ratio"] = fixed / first

    def under_psed(s):
        return s["parent"] >= 0 and by_id[s["parent"]]["name"] == "pipeline.psed_detect"

    mmp_ls = named("sparse_recovery.mmp", lambda s: under_psed(s) and s["attrs"]["estimator"] == sparse_recovery.LS)
    mmp_lmmse = named("sparse_recovery.mmp", lambda s: under_psed(s) and s["attrs"]["estimator"] != sparse_recovery.LS)
    oracle = named("sparse_recovery.mmp", lambda s: not under_psed(s))
    for group, metric in ((mmp_ls, "sparse_recovery.mmp_ls_ms"), (mmp_lmmse, "sparse_recovery.mmp_lmmse_ms"),
                          (oracle, "sparse_recovery.oracle_mmp_ms")):
        if group:
            out[metric] = mean_ms(group)
    mmp = named("sparse_recovery.mmp")
    if mmp:
        paths = sum(s["attrs"]["paths"] for s in mmp)
        out["sparse_recovery.paths_explored"] = paths / len(mmp)
        out["sparse_recovery.us_per_path"] = 1e6 * sum(dur[s["id"]] for s in mmp) / paths
        out["sparse_recovery.work_ratio"] = paths / sum(s["attrs"]["KL"] for s in mmp)

    rip = named("analysis.rip_constant")
    if rip:
        out["analysis.subsets_per_s"] = sum(s["attrs"]["subsets"] for s in rip) / sum(dur[s["id"]] for s in rip)

    sweeps = named("harness.run_sweep")
    if sweeps:
        trials = sum(s["attrs"]["trials"] for s in sweeps)
        out["harness.sweep_ms_per_trial"] = 1e3 * sum(dur[s["id"]] for s in sweeps) / trials
        out["harness.self_ms_per_trial"] = 1e3 * sum(dur[s["id"]] - child.get(s["id"], 0.0) for s in sweeps) / trials
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Median over blocks of each per-layer figure the spans allow."""
    by_id = {s["id"]: s for s in spans}
    blocks: dict = {}
    for s in spans:
        blocks.setdefault(s["block"], []).append(s)
    per_block = [_block_metrics(group, by_id) for group in blocks.values()]
    names = sorted({k for m in per_block for k in m})
    return {k: statistics.median(m[k] for m in per_block if k in m) for k in names}
