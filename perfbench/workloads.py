"""The four benchmark workloads and the benchmark's own reference computations.

Each workload generates its inputs from the workload seed, makes one warm-up
call (part of set-up), and then serves numbered calls: ``prepare(i)`` builds
the inputs of call i outside the timed region, ``call(inputs)`` is the timed
call into one public function of ``qls``, and ``check(i, result)`` compares
the result with a computation written here, independently of the program's
own code paths.  The checks use tolerances and Monte Carlo error bars rather
than digests, so any correct implementation passes them, including one that
draws its random numbers differently.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

# Second element of every derived seed: set-up, timed calls, references.
WARM, CALL, REF = 0, 1, 2

EULER_GAMMA = 0.5772156649015329

# Standardized Fisher information of (mu, sigma), from the textbook closed forms.
FISHER = {
    "cauchy": ((0.5, 0.0), (0.0, 0.5)),
    "laplace": ((1.0, 0.0), (0.0, 1.0)),
    "logistic": ((1.0 / 3.0, 0.0), (0.0, (3.0 + math.pi ** 2) / 9.0)),
    "normal": ((1.0, 0.0), (0.0, 2.0)),
    "gumbel": ((1.0, EULER_GAMMA - 1.0),
               (EULER_GAMMA - 1.0, math.pi ** 2 / 6.0 + (EULER_GAMMA - 1.0) ** 2)),
}

# Relative tolerance of the deterministic checks: far above the rounding
# differences between dense, Cholesky and banded solves at k <= 200, far
# below any change of the estimator itself.
RTOL = 1e-7
# Monte Carlo checks accept means within this many combined standard errors.
Z_MAX = 5.0


def derive_seed(seed: int, *path: int) -> int:
    """A 62-bit seed for one call, drawn from the workload seed."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(2))


def ranks(n: int, levels: np.ndarray) -> np.ndarray:
    """0-based positions of the ceil(n p)-th order statistics (n p within
    1e-9 of an integer counts as that integer)."""
    t = n * np.asarray(levels, dtype=float)
    nearest = np.rint(t)
    snap = np.abs(t - nearest) <= 1e-9 * np.maximum(1.0, np.abs(t))
    r = np.where(snap, nearest, np.ceil(t)).astype(np.int64)
    return np.maximum(r, 1) - 1


def dense_design(fam, levels):
    """X = [1, Q0(p)] and s_ij = p_i (1 - p_j) / (f_i f_j), built densely."""
    p = np.asarray(levels, dtype=float)
    q = np.asarray(fam.qf(p), dtype=float)
    f = np.asarray(fam.pdf(q), dtype=float)
    x = np.column_stack([np.ones_like(q), q])
    s = np.minimum.outer(p, p) * (1.0 - np.maximum.outer(p, p)) / np.outer(f, f)
    return x, s


def dense_weights(kind: str, x: np.ndarray, s: np.ndarray):
    """The 2 x k map W with beta = W y, and the standardized covariance."""
    if kind == "gqls":
        sx = np.linalg.solve(s, x)
        cov = np.linalg.inv(x.T @ sx)
        return cov @ sx.T, cov
    g_inv = np.linalg.inv(x.T @ x)
    w = g_inv @ x.T
    return w, w @ s @ w.T


def close(value: float, ref: float, scale: float) -> bool:
    return bool(np.isfinite(value)) and abs(value - ref) <= RTOL * scale


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class Workload:
    """One closed-loop workload: a single client making one call at a time."""

    name = ""
    unit = ""              # one unit of work_per_s
    units_per_call = 1
    ops_per_call = 1       # operations counted by failed_fraction
    predicted_dominant = ""

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        raise NotImplementedError

    def call(self, inputs):
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        raise NotImplementedError

    def program_failures(self, result) -> int:
        """Operations the program itself reports as failed in a result."""
        return 0

    def describe(self) -> dict:
        raise NotImplementedError


class McContam(Workload):
    """The README Monte Carlo study: 5% N(1, 3^2) contamination of N(0, 1)."""

    name = "mc_contam"
    unit = "replicates"
    predicted_dominant = "plan_build"

    def __init__(self, qls, seed: int, n: int = 1000, m: int = 2000):
        self.qls, self.seed, self.n, self.m = qls, seed, n, m
        self.normal = qls.get_family("normal")
        self.spec = qls.ContaminationSpec(
            base_family=self.normal, base_params=qls.Params(0.0, 1.0),
            contaminant_family=self.normal, contaminant_params=qls.Params(1.0, 3.0),
            epsilon=0.05,
        )
        self.estimators = (
            qls.EstimatorSpec("gqls", qls.make_grid(0.05, 0.95, 25)),
            qls.EstimatorSpec("oqls", qls.make_grid(0.10, 0.90, 25)),
            qls.EstimatorSpec("mle"),
        )
        self.units_per_call = m
        self.ops_per_call = m * len(self.estimators)
        self._reference = None

    def _config(self, m: int, seed: int):
        return self.qls.McConfig(spec=self.spec, n=self.n, m=m,
                                 estimators=self.estimators, seed=seed, workers=1)

    def warm_up(self) -> None:
        self.qls.run_mc(self._config(20, derive_seed(self.seed, WARM)))

    def prepare(self, i: int):
        return self._config(self.m, derive_seed(self.seed, CALL, i))

    def call(self, config):
        return self.qls.run_mc(config)

    def program_failures(self, summary) -> int:
        return int(sum(summary.failures.values()))

    def reference(self) -> dict:
        """Mean and standard error of each QLS estimate over 2m replicates,
        sampled here with numpy's normal generator (a different stream and
        method than the program's inversion sampler) and fitted by dense
        least squares on np.sort order statistics."""
        if self._reference is not None:
            return self._reference
        plans = {}
        for est in self.estimators:
            if est.method == "mle":
                continue
            x, s = dense_design(self.normal, est.grid.levels)
            plans[est.label] = (ranks(self.n, est.grid.levels), dense_weights(est.method, x, s)[0])
        rng = np.random.default_rng([self.seed, REF])
        fits = {label: [] for label in plans}
        left = 2 * self.m
        while left:
            rows = min(250, left)
            left -= rows
            block = rng.standard_normal((rows, self.n))
            hit = rng.random((rows, self.n)) < self.spec.epsilon
            block[hit] = 1.0 + 3.0 * rng.standard_normal(int(hit.sum()))
            block.sort(axis=1)
            for label, (idx, w) in plans.items():
                fits[label].append(block[:, idx] @ w.T)
        ref = {}
        for label, parts in fits.items():
            est = np.concatenate(parts)
            ref[label] = (est.mean(axis=0), est.std(axis=0, ddof=1) / math.sqrt(est.shape[0]))
        self._reference = ref
        return ref

    def check(self, i: int, summary) -> bool:
        ref = self.reference()
        for est in self.estimators:
            per_param = summary.stats.get(est.label, {})
            fails = summary.failures.get(est.label)
            for c, pname in enumerate(est.param_names):
                ps = per_param.get(pname)
                if ps is None or fails is None or ps.n_used + fails != self.m:
                    return False
                if not all(math.isfinite(v) for v in dataclasses.astuple(ps)):
                    return False
                if est.label in ref:
                    var = max(ps.sqrt_mse ** 2 - ps.bias ** 2, 0.0)
                    se = math.hypot(math.sqrt(var / ps.n_used), ref[est.label][1][c])
                    if abs(ps.mean - ref[est.label][0][c]) > Z_MAX * se:
                        return False
        return True

    def describe(self) -> dict:
        return {"n": self.n, "M": self.m, "epsilon": self.spec.epsilon,
                "estimators": [e.label for e in self.estimators],
                "first_call_seed": derive_seed(self.seed, CALL, 0)}


class FitBigdata(Workload):
    """Single fits on n = 1e6 samples drawn in set-up."""

    name = "fit_bigdata"
    unit = "fits"
    predicted_dominant = "quantiles"
    COMBOS = (("normal", "gqls"), ("normal", "oqls"), ("cauchy", "gqls"), ("cauchy", "oqls"))
    LOC, SCALE = 0.3, 2.0

    def __init__(self, qls, seed: int, n: int = 1_000_000):
        self.qls, self.seed, self.n = qls, seed, n
        rng = np.random.default_rng([seed, WARM])
        self.fams = {name: qls.get_family(name) for name in ("normal", "cauchy")}
        self.data = {
            "normal": self.LOC + self.SCALE * rng.standard_normal(n),
            "cauchy": self.LOC + self.SCALE * rng.standard_cauchy(n),
        }
        self.grid = qls.make_grid(0.05, 0.95, 25)
        self._reference = None

    def warm_up(self) -> None:
        for i in range(len(self.COMBOS)):
            self.call(self.prepare(i))

    def prepare(self, i: int):
        return self.COMBOS[i % len(self.COMBOS)]

    def call(self, combo):
        fam, method = combo
        return self.qls.fit_sample(self.data[fam], self.fams[fam], self.grid, method=method)

    def reference(self) -> dict:
        if self._reference is not None:
            return self._reference
        ref = {}
        idx = ranks(self.n, self.grid.levels)
        for fam in self.fams:
            y = np.sort(self.data[fam])[idx]
            x, s = dense_design(self.fams[fam], self.grid.levels)
            for method in ("gqls", "oqls"):
                w, cov = dense_weights(method, x, s)
                beta = w @ y
                ref[fam, method] = (beta, beta[1] ** 2 / self.n * cov)
        self._reference = ref
        return ref

    def check(self, i: int, fit) -> bool:
        beta, cov = self.reference()[self.COMBOS[i % len(self.COMBOS)]]
        if fit.asy_cov is None or np.shape(fit.asy_cov) != (2, 2):
            return False
        scale = abs(beta[1])
        return (close(fit.mu, beta[0], scale) and close(fit.sigma, beta[1], scale)
                and all(close(a, b, np.max(np.abs(cov)))
                        for a, b in zip(np.ravel(fit.asy_cov), np.ravel(cov))))

    def describe(self) -> dict:
        return {"n": self.n, "grid": [0.05, 0.95, 25], "combos": [list(c) for c in self.COMBOS],
                "data_sha256": _digest(self.data["normal"], self.data["cauchy"])}


class GofBootstrap(Workload):
    """Parametric-bootstrap W_out test of logistic data."""

    name = "gof_bootstrap"
    unit = "bootstrap_replicates"
    predicted_dominant = "sampling"
    OUT_LEVELS = 0.01 + 0.02 * np.arange(50)   # the documented default out-levels

    def __init__(self, qls, seed: int, n: int = 10_000, b: int = 1000):
        self.qls, self.seed, self.n, self.b = qls, seed, n, b
        self.fam = qls.get_family("logistic")
        self.grid = qls.make_grid(0.05, 0.95, 25)
        self.data = np.random.default_rng([seed, WARM]).logistic(0.1, 0.9, n)
        self.units_per_call = self.ops_per_call = b
        self._reference = None

    def warm_up(self) -> None:
        self.qls.bootstrap_pvalue(self.data, self.fam, self.grid, B=50,
                                  seed=derive_seed(self.seed, WARM))

    def prepare(self, i: int):
        return derive_seed(self.seed, CALL, i)

    def call(self, seed):
        return self.qls.bootstrap_pvalue(self.data, self.fam, self.grid, B=self.b, seed=seed)

    def program_failures(self, result) -> int:
        return int(result.failures)

    def reference(self) -> float:
        """Observed W_out: dense gQLS fit on the estimation levels, then
        (n / sigma^2) e' S_out^-1 e on the out-levels."""
        if self._reference is None:
            srt = np.sort(self.data)
            x, s = dense_design(self.fam, self.grid.levels)
            beta = dense_weights("gqls", x, s)[0] @ srt[ranks(self.n, self.grid.levels)]
            x_out, s_out = dense_design(self.fam, self.OUT_LEVELS)
            e = srt[ranks(self.n, self.OUT_LEVELS)] - x_out @ beta
            self._reference = float(self.n / beta[1] ** 2 * (e @ np.linalg.solve(s_out, e)))
        return self._reference

    def check(self, i: int, result) -> bool:
        ref = self.reference()
        return (result.b_replicates is not None
                and result.b_replicates + result.failures == self.b
                and 0.0 <= result.p_value <= 1.0
                and close(result.statistic, ref, ref))

    def describe(self) -> dict:
        return {"n": self.n, "B": self.b, "grid": [0.05, 0.95, 25], "out_levels": 50,
                "data_sha256": _digest(self.data),
                "first_call_seed": derive_seed(self.seed, CALL, 0)}


class AreSweep(Workload):
    """Joint-mode ARE cells for k = 2..200; each pass of the sweep draws its
    own (a, b) near (0.05, 0.95), so no cell key repeats within a run."""

    name = "are_sweep"
    unit = "cells"
    predicted_dominant = "plan_build"
    FAMILIES = ("cauchy", "laplace", "logistic", "normal", "gumbel")
    KINDS = ("gqls", "oqls")

    def __init__(self, qls, seed: int, k_max: int = 200):
        self.qls, self.seed = qls, seed
        self.fams = {name: qls.get_family(name) for name in self.FAMILIES}
        self.cells = [(kind, fam, k) for kind in self.KINDS for fam in self.FAMILIES
                      for k in range(2, k_max + 1)]
        self._bounds = {}
        self._reference = {}

    def bounds(self, sweep: int) -> tuple[float, float]:
        if sweep not in self._bounds:
            jitter = np.random.default_rng([self.seed, CALL, sweep]).uniform(-0.01, 0.01, 2)
            self._bounds[sweep] = (0.05 + float(jitter[0]), 0.95 + float(jitter[1]))
        return self._bounds[sweep]

    def warm_up(self) -> None:
        a, b = np.random.default_rng([self.seed, WARM]).uniform([0.04, 0.94], [0.06, 0.96])
        grid = self.qls.make_grid(float(a), float(b), 25)
        for kind in self.KINDS:
            for fam in self.fams.values():
                self.qls.are(kind, fam, grid)

    def prepare(self, i: int):
        sweep, c = divmod(i, len(self.cells))
        kind, fam, k = self.cells[c]
        return kind, self.fams[fam], self.qls.make_grid(*self.bounds(sweep), k)

    def call(self, inputs):
        kind, fam, grid = inputs
        return self.qls.are(kind, fam, grid)

    def reference(self, i: int) -> float:
        sweep, c = divmod(i, len(self.cells))
        kind, fam, k = self.cells[c]
        key = (sweep, fam, k)
        if key not in self._reference:
            a, b = self.bounds(sweep)
            x, s = dense_design(self.fams[fam], np.linspace(a, b, k))
            det_info = float(np.linalg.det(np.array(FISHER[fam])))
            self._reference[key] = {
                kd: (1.0 / (det_info * float(np.linalg.det(dense_weights(kd, x, s)[1])))) ** 0.5
                for kd in self.KINDS
            }
        return self._reference[key][kind]

    def check(self, i: int, result) -> bool:
        kind, fam, k = self.cells[i % len(self.cells)]
        ref = self.reference(i)
        return (result.kind == kind and result.family == fam and result.k == k
                and result.are is not None and close(result.are, ref, ref))

    def describe(self) -> dict:
        a, b = self.bounds(0)
        return {"cells_per_sweep": len(self.cells), "kinds": list(self.KINDS),
                "families": list(self.FAMILIES), "k": [2, self.cells[-1][2]],
                "first_sweep_bounds": [a, b]}


WORKLOADS = {w.name: w for w in (McContam, FitBigdata, GofBootstrap, AreSweep)}
