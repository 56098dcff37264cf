"""Span tracer for the traced benchmark run.

The tracer wraps selected ``qls`` functions from outside the package: each
function is replaced, in every ``qls`` module namespace that bound it by
name, by a wrapper that records one span (name, start, end, parent).  Spans
are kept in memory in flat arrays and written out when the run ends.  A
span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# (module, function) of every traced function; Family.sample is patched on
# the class.  The label <module>.<function> names the per-layer metrics.
TRACED = (
    ("families", "Family.sample"),
    ("simulate", "sample_contaminated"),
    ("simulate", "run_mc"),
    ("quantiles", "empirical_quantiles"),
    ("quantiles", "sigma_star"),
    ("quantiles", "design_matrix"),
    ("linalg", "spd_factorize"),
    ("linalg", "solve_spd"),
    ("linalg", "det"),
    ("estimators", "fit_sample"),
    ("estimators", "fit_gqls"),
    ("estimators", "fit_oqls"),
    ("estimators", "fit_mle"),
    ("estimators", "asymptotic_cov"),
    ("gof", "bootstrap_pvalue"),
    ("gof", "w_out_statistic"),
    ("gof", "w_test"),
    ("efficiency", "are"),
    ("efficiency", "standardized_cov"),
)
LABELS = tuple(f"{mod}.{fn}" for mod, fn in TRACED)

# Work counted at a boundary: label -> (argument, count taken from it).
WORK = {
    "families.Family.sample": ("n", int),                         # draws
    "quantiles.empirical_quantiles": ("sample", np.size),         # observations
    "gof.bootstrap_pvalue": ("B", lambda b: int(b) + 1),          # gQLS refits
}

# Layer groups of the prediction table; labels in no group make up "other".
GROUPS = {
    "plan_build": ("estimators.fit_gqls", "estimators.fit_oqls", "estimators.asymptotic_cov",
                   "linalg.spd_factorize", "linalg.solve_spd", "linalg.det",
                   "quantiles.sigma_star", "quantiles.design_matrix",
                   "efficiency.standardized_cov"),
    "quantiles": ("quantiles.empirical_quantiles",),
    "sampling": ("families.Family.sample", "simulate.sample_contaminated"),
    "gof_loop": ("gof.bootstrap_pvalue", "gof.w_out_statistic", "gof.w_test"),
    "mc_mle": ("simulate.run_mc", "estimators.fit_mle"),
}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for label in LABELS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_ms"] = "ms"
    units.update({
        "plan.fits": "count",
        "plan.builds_per_fit": "ratio",
        "linalg.factorizations_per_fit": "ratio",
        "families.draws": "count",
        "families.ns_per_draw": "ns",
        "quantiles.obs": "count",
        "quantiles.ns_per_obs": "ns",
        "quantiles.bytes_computed": "bytes",
        "trace.calls": "count",
        "trace.overhead_frac": "fraction",
    })
    for group in (*GROUPS, "other"):
        units[f"share.{group}"] = "fraction"
    return units


class Tracer:
    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = dict.fromkeys(WORK, 0)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, label: str):
        nid = LABELS.index(label)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        count = None
        if label in WORK:
            arg, measure = WORK[label]
            sig = inspect.signature(fn)
            work = self.work

            def count(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                work[label] += measure(bound.arguments[arg])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qls" or name.startswith("qls."))]
        for (mod, fn), label in zip(TRACED, LABELS):
            home = importlib.import_module(f"qls.{mod}")
            if "." in fn:
                cls_name, attr = fn.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(orig, label))
                continue
            orig = getattr(home, fn)
            wrapper = self._wrap(orig, label)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, attr, wrapper)
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False

    def _arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return name_id, parent, dur

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time covered by its direct children
        (children run nested and in sequence, so they never overlap)."""
        _, parent, dur = self._arrays()
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def save(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        name_id, parent, _ = self._arrays()
        np.savez_compressed(
            path, labels=np.array(LABELS), name_id=name_id, parent=parent,
            start=np.frombuffer(self.start, dtype=float) - t0,
            end=np.frombuffer(self.end, dtype=float) - t0,
        )

    def layer_metrics(self, calls: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics of the traced phase as {name: value}."""
        name_id, parent, dur = self._arrays()
        self_ms = np.bincount(name_id, weights=self.self_times(), minlength=len(LABELS)) * 1e3
        n_calls = np.bincount(name_id, minlength=len(LABELS))
        by_label = {label: (int(n_calls[j]), float(self_ms[j])) for j, label in enumerate(LABELS)}
        out = {}
        for label, (n, ms) in by_label.items():
            out[f"{label}.calls"] = n
            out[f"{label}.self_ms"] = ms
        fits = (by_label["estimators.fit_gqls"][0] + by_label["estimators.fit_oqls"][0]
                + by_label["efficiency.standardized_cov"][0] + self.work["gof.bootstrap_pvalue"])
        draws = self.work["families.Family.sample"]
        obs = self.work["quantiles.empirical_quantiles"]
        out.update({
            "plan.fits": fits,
            "plan.builds_per_fit": _ratio(by_label["quantiles.sigma_star"][0], fits),
            "linalg.factorizations_per_fit": _ratio(by_label["linalg.spd_factorize"][0], fits),
            "families.draws": draws,
            "families.ns_per_draw": _ratio(by_label["families.Family.sample"][1] * 1e6, draws),
            "quantiles.obs": obs,
            "quantiles.ns_per_obs": _ratio(by_label["quantiles.empirical_quantiles"][1] * 1e6, obs),
            "quantiles.bytes_computed": 8 * obs,
            "trace.calls": calls,
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
        })
        total_ms = float(dur[parent < 0].sum()) * 1e3
        grouped = 0.0
        for group, labels in GROUPS.items():
            ms = sum(by_label[label][1] for label in labels)
            grouped += ms
            out[f"share.{group}"] = _ratio(ms, total_ms)
        out["share.other"] = _ratio(total_ms - grouped, total_ms)
        return out


def _ratio(num: float, base: float) -> float:
    """num / base, reported as 0 when the base is 0 (the base is reported
    alongside, so a 0 base stays visible)."""
    return num / base if base else 0.0
