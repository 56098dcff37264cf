"""Monte Carlo harness: contamination model, estimator comparisons, power
studies for the goodness-of-fit tests, and timing benchmarks.

Data are drawn from the mixture (1 - eps) F0 + eps G; bias and root-MSE are
always measured against the parameters of the clean component F0.  Every
study is deterministic given its seed: a study (or power cell) reads one
stream, ``default_rng([*seed_prefix, _STREAM_KEY])``, in which replicate r
owns the w uniforms [r w, (r + 1) w) (``_row_width``: n base uniforms, then
with contamination n mask uniforms, which also give the contaminant its
uniforms), and the reduction order is fixed.

Replicates run as a batch engine.  Consecutive replicates fill the rows of
one block of at most 2^17 draws, 1 MiB (``_run_blocks``).  A block advances
its own copy of the stream to its first replicate (PCG64 spends one 64-bit
step per double; L'Ecuyer et al. 2002, O'Neill 2014), draws all its rows at
once into its worker's reused uniform buffer and makes the base draws with
the family's i.i.d. transform (``Family._iid``: Box-Muller for the normal,
run in a contiguous scratch, inversion otherwise) and the contaminant's
draws at the hits, found by flat index and read from their mask uniforms
divided by epsilon, with its monotone quantile transform
(``Family._from_uniform``), each once on the whole block.  The block of
draws is allocated afresh, since ``work`` may keep it.  Each MLE column is
fitted on the block as drawn; the block is then sorted once along its rows,
and one row-batched product per estimator or test (``FitPlan.solve``) fits
all the rows.  A row's results do not depend on its block, so they are the
same for any block size, and the caller and one helper thread take whole
blocks (``_run_blocks``, through ``quantiles._two_threads``).
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import gof
from .errors import DomainError, QlsError
from .families import Family, ParamMode, Params, check_sampling, check_seed
from .quantiles import (QuantileGrid, _positions, _two_threads, finite_rows, make_grid,
                        replicate_blocks)
from .estimators import FitPlan, _check_known, _known_scale, _mle_rows, fit_sample

__all__ = [
    "ContaminationSpec",
    "EstimatorSpec",
    "McConfig",
    "McSummary",
    "ParamSummary",
    "PowerCell",
    "TimingRow",
    "sample_contaminated",
    "run_mc",
    "run_power_study",
    "run_timing",
]


@dataclass(frozen=True)
class ContaminationSpec:
    """Mixture sampler: each observation comes from the contaminant with
    probability epsilon, otherwise from the base distribution.  With
    epsilon > 0 it needs a contaminant whose scale is positive."""

    base_family: Family
    base_params: Params = Params()
    contaminant_family: Family | None = None
    contaminant_params: Params | None = None
    epsilon: float = 0.0
    label: str = ""

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise DomainError("epsilon must lie in [0, 1]")
        if self.epsilon > 0.0:
            if self.contaminant_family is None or self.contaminant_params is None:
                raise DomainError("a contaminant family and its parameters are required "
                                  "when epsilon > 0")
            check_sampling(self.contaminant_params, 1)
        if not self.label:
            lab = self.base_family.name
            if self.epsilon > 0.0:
                lab = f"{1 - self.epsilon:g}*{lab}+{self.epsilon:g}*{self.contaminant_family.name}"
            object.__setattr__(self, "label", lab)


# The last word of every replicate stream's key: [seed, _STREAM_KEY] for a
# run_mc study, [*cell_seed, _STREAM_KEY] for a power cell.  Picked as
# gof._BOOTSTRAP_KEY was: both of its 32-bit words exceed any cell or timing
# index, so no other key of the program reaches it.
_STREAM_KEY = 0xBB67AE8584CAA73B


def _row_width(spec: ContaminationSpec, n: int) -> int:
    """Uniforms per sample of n: n base uniforms, then, when epsilon > 0, n
    mask uniforms that pick the contaminated entries and, divided by epsilon,
    are the contaminant's uniforms at them."""
    return 2 * n if spec.epsilon > 0.0 else n


def sample_contaminated(spec: ContaminationSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n observations from the mixture, made of the next
    ``_row_width(spec, n)`` uniforms of rng: entry j is the contaminant's
    inversion draw from m / epsilon when the j-th uniform m of the second n
    lies below epsilon, else the j-th base draw made of the first n
    (``Family.sample``'s).  With epsilon = 0 the stream consumed and the
    draws are those of plain base-family sampling."""
    check_sampling(spec.base_params, n)
    return _from_uniforms(spec, n, rng.random((1, _row_width(spec, n))))[0]


def _from_uniforms(spec: ContaminationSpec, n: int, u: np.ndarray) -> np.ndarray:
    """The (rows, n) mixture draws made of a (rows, ``_row_width``) array of
    uniforms, one sample per row as ``sample_contaminated`` lays it out; u may
    be overwritten.  The base family's i.i.d. transform runs once on the base
    uniforms and the contaminant's quantile transform once on its hits; both
    work elementwise or within a row, so a row is the same bits whatever rows
    it is drawn with.

    A mask uniform m below epsilon is recycled (composition; Devroye 1986,
    Non-Uniform Random Variate Generation): given m < epsilon,
    m / epsilon is uniform on [0, 1) and independent of the rest of the row.
    Its values step by 2^-53 / epsilon instead of 2^-53 (2.2e-15 at epsilon
    = 0.05); the transform's clip to [``_U_FLOOR``, ``_U_CEIL``] keeps every
    quantile finite.  The hits are found as flat positions f of the draws
    and read from u at f + (row + 1) n, one gather and one scatter by index:
    two boolean-mask passes over the strided mask cost about twice as much."""
    x = spec.base_family._iid(spec.base_params, u[:, :n])
    if spec.epsilon > 0.0:
        hits = np.flatnonzero(u[:, n:] < spec.epsilon)
        uc = np.take(u, hits + (hits // n + 1) * n)
        uc /= spec.epsilon
        np.put(x, hits, spec.contaminant_family._from_uniform(spec.contaminant_params, uc))
    return x


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator column in a study."""

    method: str  # "mle" | "oqls" | "gqls"
    grid: QuantileGrid | None = None
    mode: ParamMode = ParamMode.LOCATION_SCALE
    known_mu: float = 0.0
    known_sigma: float | None = None  # 1 for the QLS methods when unset; the MLE takes none
    label: str = ""

    def __post_init__(self):
        if self.method not in ("mle", "oqls", "gqls"):
            raise DomainError(f"unknown method {self.method!r}")
        if self.method != "mle" and self.grid is None:
            raise DomainError(f"{self.method} needs a quantile grid")
        _check_known(self.known_mu, self.known_sigma)
        object.__setattr__(self, "known_sigma", _known_scale(self.method, self.known_sigma))
        if not self.label:
            if self.method == "mle":
                object.__setattr__(self, "label", "mle")
            else:
                g = self.grid
                object.__setattr__(
                    self, "label", f"{self.method}({g.a:g},{g.b:g},k={g.k})"
                )

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.mode.names


def _check_study(n: int, m: int) -> None:
    """DomainError unless a study's sample size n and replicate count m are >= 1."""
    if n < 1 or m < 1:
        raise DomainError(f"sample size and replicate count must be >= 1, got n={n}, m={m}")


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo study.  ``seed`` must be a non-negative integer
    (InvalidSeed otherwise); replicate r is made of the r-th run of
    ``_row_width(spec, n)`` doubles (n clean, 2n contaminated) of
    ``default_rng([seed, _STREAM_KEY])``."""

    spec: ContaminationSpec
    n: int
    m: int
    estimators: tuple[EstimatorSpec, ...]
    seed: int = 0
    workers: int = 1  # accepted for compatibility and ignored: the caller and one
    # helper thread take whole blocks

    def __post_init__(self):
        _check_study(self.n, self.m)
        check_seed(self.seed)
        object.__setattr__(self, "estimators", tuple(self.estimators))


@dataclass(frozen=True)
class ParamSummary:
    mean: float
    bias: float
    sqrt_mse: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    n_used: int


@dataclass(frozen=True)
class McSummary:
    config: McConfig
    stats: dict  # label -> param -> ParamSummary
    failures: dict  # label -> count
    warnings: dict = field(default_factory=dict)  # label -> tags of its grid at n

    def as_rows(self) -> list[dict]:
        rows = []
        for label, per_param in self.stats.items():
            for pname, s in per_param.items():
                rows.append({
                    "estimator": label, "parameter": pname, "mean": s.mean,
                    "bias": s.bias, "sqrt_mse": s.sqrt_mse, "min": s.minimum,
                    "q1": s.q1, "median": s.median, "q3": s.q3, "max": s.maximum,
                    "n_used": s.n_used, "failures": self.failures[label],
                })
        return rows


def _run_blocks(spec: ContaminationSpec, n: int, replicates: range, seed_prefix: tuple,
                work) -> None:
    """Draw the replicates in (rows, n) blocks and call ``work(reps, block)``
    on each; replicate r is made of doubles [r w, (r + 1) w) of
    ``default_rng([*seed_prefix, _STREAM_KEY])``, w = ``_row_width(spec, n)``.
    A block holds at most ``quantiles._BLOCK_VALUES`` draws (rows x n, one
    row when a sample is larger), whatever w: every block makes about the
    same number of GIL-releasing numpy calls, so a contaminated study at
    w = 2n cuts as few blocks, and hands the GIL between the two threads as
    seldom, as a clean one.

    The caller and one helper thread each take the next block until none is
    left (``quantiles._two_threads``), so ``work`` must write only its own
    replicates' results.  After the first error neither takes another block,
    and that error is raised here.

    A worker allocates its (rows, w) uniform buffer once, at its first block
    (the largest; 2 MiB for a contaminated block of 2^17 draws), and draws
    every block into it; ``work`` never sees it.
    Each block handed to ``work`` is a fresh array, which ``work`` may keep."""
    check_sampling(spec.base_params, n)
    width = _row_width(spec, n)
    key = np.random.SeedSequence([*seed_prefix, _STREAM_KEY])

    def run(take):
        u = None
        while (reps := take()) is not None:
            if u is None:  # the first block is the largest
                u = np.empty((len(reps), width))
            bits = np.random.PCG64(key)
            bits.advance(reps.start * width)
            draw = np.random.Generator(bits).random(out=u[:len(reps)])
            block = _from_uniforms(spec, n, draw)
            work(reps, block)
            del block

    _two_threads(replicate_blocks(replicates, n), run)


def _scale_ok(est: EstimatorSpec, sigma):
    """A replicate fails on a non-positive scale unless the scale was known."""
    return est.mode is ParamMode.LOCATION_ONLY or sigma > 0


def _five_number(v: np.ndarray) -> tuple[float, float, float, float, float]:
    q = np.quantile(v, [0.0, 0.25, 0.5, 0.75, 1.0])
    return tuple(float(t) for t in q)


def _mc_estimates(config: McConfig) -> tuple[np.ndarray, dict]:
    """Estimates of every replicate: an (m, estimators, 2) array holding each
    estimator's parameters in ``param_names`` order, NaN where its fit
    failed; and the rank tags of each estimator's grid at n, by label."""
    m = config.m
    fam = config.spec.base_family
    estimates = np.full((m, len(config.estimators), 2), np.nan)
    mles, qls, warnings = [], [], {}
    for j, est in enumerate(config.estimators):
        if est.method == "mle":
            mles.append((j, est))
            warnings[est.label] = ()
        else:  # one plan and one set of positions per QLS estimator
            pos, (cols,), (tags,) = _positions(config.n, est.grid)
            qls.append((j, est, FitPlan.for_family(fam, est.grid, est.method), pos[cols]))
            warnings[est.label] = tuple(tags)

    def fit(reps, block):
        rows = slice(reps.start, reps.stop)
        for j, est in mles:  # on the draws as made: sums run in draw order
            try:
                theta = _mle_rows(fam, block, est.mode, est.known_mu)[0]
            except QlsError:  # no MLE for this family and mode: every replicate fails
                continue
            ok = _scale_ok(est, theta[:, 1])
            # the MLE gives (mu, sigma); keep the columns the estimator reports
            theta = theta[:, est.mode.columns]
            estimates[rows, j, :theta.shape[1]] = np.where(ok[:, None], theta, np.nan)
        block.sort(axis=1)
        finite = finite_rows(block)
        for j, est, plan, idx in qls:
            try:
                beta = plan.solve(block[:, idx], est.mode, known_mu=est.known_mu,
                                  known_sigma=est.known_sigma)
            except QlsError:  # the mode's Gram is singular: every replicate fails
                continue
            ok = finite & _scale_ok(est, beta[:, -1])
            estimates[rows, j, :beta.shape[1]] = np.where(ok[:, None], beta, np.nan)

    _run_blocks(config.spec, config.n, range(m), (config.seed,), fit)
    return estimates, warnings


def run_mc(config: McConfig) -> McSummary:
    """Fit every estimator on every replicate; summarize against the clean
    base parameters.  Replicates whose fit fails (non-convergence, data that
    are not finite, or a non-positive scale) are excluded from the summaries
    and counted.  A QLS estimator whose grid reads clamped or repeated ranks
    at this n carries those tags in ``warnings``, as ``fit_sample`` would.
    ``config.workers`` is accepted for compatibility and does not change the
    result or the speed: on the batch engine the caller and one helper
    thread take whole blocks."""
    m = config.m
    estimates, warnings = _mc_estimates(config)
    truth = {"mu": config.spec.base_params.mu, "sigma": config.spec.base_params.sigma}
    stats: dict = {}
    failures: dict = {}
    for j, est in enumerate(config.estimators):
        per_param: dict = {}
        n_fail = 0
        for c, pname in enumerate(est.param_names):
            col = estimates[:, j, c]
            ok = col[np.isfinite(col)]
            n_fail = max(n_fail, m - ok.size)
            if ok.size == 0:
                continue
            mean = float(np.mean(ok))
            bias = mean - truth[pname]
            sqrt_mse = float(np.sqrt(np.mean((ok - truth[pname]) ** 2)))
            mn, q1, med, q3, mx = _five_number(ok)
            per_param[pname] = ParamSummary(mean=mean, bias=bias, sqrt_mse=sqrt_mse,
                                            minimum=mn, q1=q1, median=med, q3=q3,
                                            maximum=mx, n_used=ok.size)
        stats[est.label] = per_param
        failures[est.label] = n_fail
    return McSummary(config=config, stats=stats, failures=failures, warnings=warnings)


# ---------------------------------------------------------------------------
# goodness-of-fit power studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerCell:
    h0_family: str
    generator: str
    a: float
    b: float
    k: int
    n: int
    m: int
    test: str
    alpha: float
    rejection_rate: float
    failures: int
    warnings: tuple = ()  # rank tags at n of the grid (and, for wout, the out-levels)

    @property
    def label(self) -> str:
        """The null family and grid, as the cell's warning lines name them."""
        return f"{self.h0_family}/({self.a:g},{self.b:g},k={self.k})"

    def as_row(self) -> dict:
        """The cell's output columns; its warnings are reported apart."""
        return {name: value for name, value in self.__dict__.items() if name != "warnings"}


def run_power_study(h0_families, generators, grids, n: int, m: int,
                    alpha: float = 0.05, test: str = "w", B: int = 1000,
                    seed: int = 0) -> list[PowerCell]:
    """Rejection-proportion table over (H0 family) x (data generator) x grid.

    generators are ContaminationSpec values (epsilon = 0 gives a pure
    family).  The cell (i_h0, i_gen, i_grid) reads one stream,
    ``default_rng([seed, i_h0, i_gen, i_grid, _STREAM_KEY])``, laid out as
    in ``run_mc``.  test "w" uses the in-sample statistic at its chi-square
    critical value; "wout" calibrates the out-of-sample statistic at the
    default out-levels (``gof.make_out_grid()``) with one B-replicate
    bootstrap null per cell, shared by its m replicates (the statistic is
    pivotal under H0), so the rate's Monte Carlo variance gains a term of
    order alpha (1 - alpha) / B.  A cell whose levels read clamped
    or repeated ranks at this n carries those tags in ``warnings``, each
    once: the grid's, and for "wout" the out-levels' too, as
    ``bootstrap_pvalue`` gives them.  Before any draw, n or m below 1, an
    unknown test, a "wout" B other than an integer >= 1 or a generator
    whose base parameters cannot be sampled raise DomainError, and a bad
    seed InvalidSeed.
    """
    _check_study(n, m)
    check_seed(seed)
    if test not in ("w", "wout"):
        raise DomainError(f"unknown test {test!r}")
    if test == "wout":
        gof._check_replicates(B)
    for gen in generators:
        check_sampling(gen.base_params, n)
    cells: list[PowerCell] = []
    for i_h0, h0 in enumerate(h0_families):
        for i_gen, gen in enumerate(generators):
            for i_grid, grid in enumerate(grids):
                pvals, tags = _cell_pvalues(h0, gen, grid, n, m, B,
                                            (seed, i_h0, i_gen, i_grid), test)
                failures = int(np.count_nonzero(np.isnan(pvals)))
                rate = (int(np.count_nonzero(pvals <= alpha)) / (m - failures)
                        if failures < m else float("nan"))
                cells.append(PowerCell(
                    h0_family=h0.name, generator=gen.label, a=grid.a, b=grid.b,
                    k=grid.k, n=n, m=m, test=test, alpha=alpha,
                    rejection_rate=rate, failures=failures, warnings=tags,
                ))
    return cells


def _cell_pvalues(h0: Family, gen: ContaminationSpec, grid: QuantileGrid, n: int, m: int,
                  B: int, cell_seed: tuple, test: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """Test p-values of a cell's m replicates, NaN where one fails: one
    batched fit and statistic per sorted block (``gof._row_statistics``),
    then W's chi-square p-value ("w") or W_out's share of one bootstrap null
    keyed ``cell_seed`` ("wout"; if the null fails, every replicate does).
    Also the rank tags of the levels read, each once."""
    plan = FitPlan.for_family(h0, grid, "gqls")
    sets = (grid,) if test == "w" else (grid, gof.make_out_grid())
    plan_out = FitPlan.for_family(h0, sets[-1], "gqls")
    pos, cols, tags = _positions(n, *sets)
    tags = tuple(dict.fromkeys(sum(tags, [])))
    pvals = np.full(m, np.nan)
    if test == "w":
        pvalues = functools.partial(gof._chi2_pvalues, grid.k)
    else:
        with gof._spacings(n, cell_seed, B, pos, cols) as spacings:
            (null,) = gof._nulls([(h0, plan, plan_out)], n, B, spacings, cols)
        if isinstance(null, QlsError):
            return pvals, tags
        pvalues = functools.partial(gof._exceedance, null)

    def block_pvalues(reps, block):
        block.sort(axis=1)
        finite = finite_rows(block)
        y = block[:, pos][finite]
        pvals[reps.start:reps.stop][finite] = pvalues(
            gof._row_statistics(plan, plan_out, y[:, cols[0]], y[:, cols[-1]], n))

    _run_blocks(gen, n, range(m), cell_seed, block_pvalues)
    return pvals, tags


# ---------------------------------------------------------------------------
# timing benchmarks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimingRow:
    family: str
    method: str
    n: int
    sample_seconds: float
    fit_seconds: float
    repeats: int
    timed_out: bool


def run_timing(families, methods, sizes, repeats: int = 3,
               grid: QuantileGrid | None = None, timeout: float | None = None,
               seed: int = 0) -> list[TimingRow]:
    """Median wall-clock sampling and fitting times.  Sampling time is kept
    separate from fitting time; a cell whose single fit exceeds the timeout
    is marked and not repeated further (its partial median is reported).
    Before any draw, repeats below 1 raise DomainError, and a bad seed
    InvalidSeed."""
    check_seed(seed)
    if repeats < 1:
        raise DomainError(f"need at least one repeat, got {repeats}")
    if grid is None:
        grid = make_grid(0.05, 0.95, 25)
    rows: list[TimingRow] = []
    for i_f, fam in enumerate(families):
        for method in methods:
            mode = (ParamMode.SCALE_ONLY
                    if method == "mle" and fam.name in ("exponential", "levy")
                    else ParamMode.LOCATION_SCALE)
            for i_n, n in enumerate(sizes):
                t_sample: list[float] = []
                t_fit: list[float] = []
                timed_out = False
                for r in range(repeats):
                    rng = np.random.default_rng([seed, i_f, i_n, r])
                    t0 = time.perf_counter()
                    data = fam.sample(Params(), int(n), rng)
                    t1 = time.perf_counter()
                    fit_sample(data, fam, grid, method, mode)
                    t2 = time.perf_counter()
                    t_sample.append(t1 - t0)
                    t_fit.append(t2 - t1)
                    if timeout is not None and t2 - t1 > timeout:
                        timed_out = True
                        break
                rows.append(TimingRow(
                    family=fam.name, method=method, n=int(n),
                    sample_seconds=float(np.median(t_sample)),
                    fit_seconds=float(np.median(t_fit)),
                    repeats=len(t_fit), timed_out=timed_out,
                ))
    return rows
