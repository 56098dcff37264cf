#!/usr/bin/env python3
"""Per-seed output digests of the library, to compare two trees byte for byte.

Writes, for each readable name of a fixed catalogue, the sha256 of the
float64 bytes (or the repr) of what that call returns for fixed seeds and
inputs, or of the name of the error it raises:

  run_mc/<study>/...  a study per family, epsilon (cauchy(1, 3) contaminant)
                      and n, with estimators labelled gqls and oqls (joint),
                      gqls_location (a known sigma), oqls_scale (a known mu)
                      and mle where the family has one: each label's
                      per-replicate estimates (<study>/<label>) and summary
                      (<study>/summary/<label>), and the grid tags
                      (<study>/tags); so a change to one estimator names
                      that estimator's entries alone
  sample/...          sample_contaminated draws
  fit_sample/...      fits of every method in every mode
  are/..., influence/...
  bootstrap/...       bootstrap_pvalue results (n = 500, B = 200, one or two
                      blocks; and logistic at n = 10000, B = 1000, six blocks)
  power/...           w and wout power tables at n = 50 and 1000
  fit_big/...         fit_sample on 2^18 + 3 values (the split sort)
  matrix/...          w_test, q_decomposition, residual_analysis,
                      asymptotic_cov and qls_weights on caller matrices

Usage: python scripts/contract_digest.py OUT.json
       python scripts/contract_digest.py --diff A.json B.json

--diff lists the names whose digests differ or that only one file holds,
and exits 1 if there are any.  Run the first form with each tree's src on
PYTHONPATH to compare the trees.
"""
import hashlib
import json
import pathlib
import sys

import numpy as np

from qls.cli import _Parser
from qls.efficiency import are, are_table
from qls.errors import QlsError
from qls.estimators import asymptotic_cov, fit_gqls, fit_sample, qls_weights
from qls.families import FAMILIES, ParamMode, Params, get_family
from qls.gof import bootstrap_pvalue, make_out_grid, q_decomposition, residual_analysis, w_test
from qls.quantiles import design_matrix, empirical_quantiles, make_grid, sigma_star
from qls.robustness import influence_curve
from qls.simulate import (ContaminationSpec, EstimatorSpec, McConfig, _mc_estimates, run_mc,
                          run_power_study, sample_contaminated)

GRID = make_grid(0.05, 0.95, 25)
OQLS_GRID = make_grid(0.10, 0.90, 15)
CONTAMINANT = (get_family("cauchy"), Params(1.0, 3.0))
SCALE_ONLY_MLE = ("exponential", "levy")
MODE_NAMES = {ParamMode.LOCATION_SCALE: "joint", ParamMode.LOCATION_ONLY: "location",
              ParamMode.SCALE_ONLY: "scale"}


def _part(value) -> bytes:
    if isinstance(value, np.ndarray):
        return repr(value.shape).encode() + np.ascontiguousarray(value, dtype=float).tobytes()
    return repr(value).encode()


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(_part(part))
        h.update(b"\0")
    return h.hexdigest()


def _spec(name: str, epsilon: float) -> ContaminationSpec:
    if epsilon == 0.0:
        return ContaminationSpec(base_family=get_family(name), base_params=Params(0.5, 2.0))
    return ContaminationSpec(base_family=get_family(name), base_params=Params(0.5, 2.0),
                             contaminant_family=CONTAMINANT[0],
                             contaminant_params=CONTAMINANT[1], epsilon=epsilon)


def _mc(name: str, epsilon: float, n: int) -> str:
    ests = [EstimatorSpec("gqls", GRID, label="gqls"),
            EstimatorSpec("oqls", OQLS_GRID, label="oqls"),
            EstimatorSpec("gqls", GRID, mode=ParamMode.LOCATION_ONLY, known_sigma=2.0,
                          label="gqls_location"),
            EstimatorSpec("oqls", OQLS_GRID, mode=ParamMode.SCALE_ONLY, known_mu=0.5,
                          label="oqls_scale")]
    if name in SCALE_ONLY_MLE:
        ests.append(EstimatorSpec("mle", mode=ParamMode.SCALE_ONLY, known_mu=0.5))
    else:
        ests.append(EstimatorSpec("mle"))
    config = McConfig(spec=_spec(name, epsilon), n=n, m=120, estimators=tuple(ests),
                      seed=20240 + n)
    estimates, tags = _mc_estimates(config)
    summary = run_mc(config)
    out = {"tags": _digest(tags)}
    for j, est in enumerate(ests):
        out[est.label] = _digest(estimates[:, j])
        out[f"summary/{est.label}"] = _digest(summary.stats[est.label],
                                              summary.failures[est.label])
    return out


def _fit(fit) -> tuple:
    return (fit.kind, fit.mode, fit.params, fit.asy_cov, fit.warnings)


def _sample(name: str, n: int, seed: int) -> np.ndarray:
    return get_family(name).sample(Params(1.5, 2.0), n, np.random.default_rng(seed))


def _fit_sample(name: str, method: str, mode: ParamMode) -> str:
    known_sigma = None if method == "mle" else 2.0
    fit = fit_sample(_sample(name, 301, 7), get_family(name), GRID, method, mode,
                     known_mu=1.5, known_sigma=known_sigma)
    return _digest(*_fit(fit))


def _influence(name: str, kind: str) -> str:
    curve = influence_curve(kind, get_family(name), Params(0.0, 1.0), GRID, (-6.0, 6.0),
                            points=61)
    return _digest(curve.x, curve.if_mu, curve.if_sigma, curve.jumps)


def _bootstrap(name: str, out_levels, n: int = 500, B: int = 200) -> str:
    out_grid = None if out_levels is None else make_out_grid(out_levels)
    return _digest(bootstrap_pvalue(_sample(name, n, 11), get_family(name), GRID, out_grid,
                                    B=B, seed=3))


def _power(test: str, n: int) -> str:
    gens = [_spec("normal", 0.0), _spec("logistic", 0.05)]
    m, b = {("w", 50): (400, 0), ("w", 1000): (60, 0),
            ("wout", 50): (200, 200), ("wout", 1000): (40, 100)}[test, n]
    cells = run_power_study([get_family("normal"), get_family("cauchy")], gens,
                            [GRID, make_grid(0.10, 0.90, 9)], n=n, m=m, test=test,
                            B=max(b, 1), seed=17)
    return _digest(cells)


def _fit_big(method: str) -> str:
    fam = get_family("logistic")
    return _digest(*_fit(fit_sample(_sample("logistic", 2 ** 18 + 3, 5), fam, GRID, method)))


def _matrix(name: str, what: str) -> str:
    fam = get_family(name)
    x, s = design_matrix(fam, GRID), sigma_star(fam, GRID)
    y = empirical_quantiles(_sample(name, 400, 13), GRID)
    fit = fit_gqls(y, x, s)
    if what == "w_test":
        return _digest(w_test(y, x, s, fit))
    if what == "q_decomposition":
        return _digest(q_decomposition(y, x, s, Params(1.5, 2.0), fit))
    if what == "residual_analysis":
        res = residual_analysis(y, x, fit, s)
        return _digest(res.residuals, res.residual_cov, res.fitted, res.fitted_cov)
    kind = what.split("/")[1]
    if what.startswith("asymptotic_cov"):
        return _digest(asymptotic_cov(kind, x, s, 1.3, 500))
    return _digest(qls_weights(kind, x, s))


def catalogue() -> dict:
    """Each entry's name and a call that returns its digest, or a dict of
    digests by the names of its parts."""
    entries = {}
    names = sorted(FAMILIES)
    for name in names:
        for eps in (0.0, 0.05):
            for n in (7, 301):
                entries[f"run_mc/{name}/eps={eps:g}/n={n}"] = (_mc, name, eps, n)
            entries[f"sample/{name}/eps={eps:g}"] = (
                lambda nm, e: _digest(sample_contaminated(_spec(nm, e), 301,
                                                          np.random.default_rng(9))), name, eps)
        if name in ("cauchy", "logistic", "gumbel"):
            entries[f"run_mc/{name}/eps=0.3/n=301"] = (_mc, name, 0.3, 301)
        for method in ("gqls", "oqls", "mle"):
            for mode, label in MODE_NAMES.items():
                entries[f"fit_sample/{name}/{method}/{label}"] = (_fit_sample, name, method, mode)
        for kind in ("gqls", "oqls"):
            entries[f"influence/{name}/{kind}"] = (_influence, name, kind)
    for kind in ("gqls", "oqls"):
        entries[f"are/table/{kind}"] = (
            lambda kd: _digest(are_table(kd, [FAMILIES[nm] for nm in names],
                                         [GRID, make_grid(0.02, 0.98, 9)], list(ParamMode))),
            kind)
        entries[f"are/levels/{kind}"] = (
            lambda kd: _digest([are(kd, FAMILIES[nm], [0.1, 0.3, 0.5, 0.7, 0.9])
                                for nm in ("normal", "logistic", "cauchy")]), kind)
    for name in ("normal", "logistic", "cauchy"):
        entries[f"bootstrap/{name}/default"] = (_bootstrap, name, None)
        entries[f"bootstrap/{name}/out9"] = (_bootstrap, name, np.linspace(0.1, 0.9, 9))
    # the benchmark's shape: six blocks of spacings
    entries["bootstrap/logistic/default/n=10000/B=1000"] = (_bootstrap, "logistic", None,
                                                             10_000, 1000)
    for test in ("w", "wout"):
        for n in (50, 1000):
            entries[f"power/{test}/n={n}"] = (_power, test, n)
    for method in ("gqls", "oqls"):
        entries[f"fit_big/logistic/{method}"] = (_fit_big, method)
    for name in ("normal", "gumbel"):
        for what in ("w_test", "q_decomposition", "residual_analysis", "asymptotic_cov/gqls",
                     "asymptotic_cov/oqls", "qls_weights/gqls", "qls_weights/oqls"):
            entries[f"matrix/{name}/{what}"] = (_matrix, name, what)
    return entries


def digests(prefixes=None) -> dict:
    """The digest of every catalogue entry whose name starts with one of
    ``prefixes`` (all when None), an entry of parts as <name>/<part>; an
    entry that raises a library error has the digest ``error:<type name>``."""
    out = {}
    for name, (call, *args) in catalogue().items():
        if prefixes is not None and not name.startswith(tuple(prefixes)):
            continue
        try:
            result = call(*args)
        except QlsError as exc:  # the error's type is part of the contract
            out[name] = f"error:{type(exc).__name__}"
            continue
        if isinstance(result, dict):
            out.update((f"{name}/{part}", value) for part, value in result.items())
        else:
            out[name] = result
    return out


def diff(a: dict, b: dict) -> list:
    """Lines naming each entry whose digests differ or that one side lacks."""
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b:
            lines.append(f"only in A: {name}")
        elif name not in a:
            lines.append(f"only in B: {name}")
        elif a[name] != b[name]:
            lines.append(f"differs: {name}")
    return lines


def main() -> None:
    parser = _Parser(description=__doc__)  # usage errors exit 1, as in qls
    parser.add_argument("out", nargs="?", help="file to write the digests to (JSON)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two digest files instead")
    args = parser.parse_args()
    if (args.out is None) == (args.diff is None):
        parser.error("give either OUT or --diff A B")
    if args.diff:
        try:
            a, b = (json.loads(pathlib.Path(p).read_text(encoding="utf-8")) for p in args.diff)
        except (OSError, ValueError) as exc:
            print(f"{parser.prog}: error: cannot read digests: {exc}", file=sys.stderr)
            sys.exit(2)
        lines = diff(a, b)
        print("\n".join(lines) if lines else f"no difference over {len(a)} entries")
        sys.exit(1 if lines else 0)
    path = pathlib.Path(args.out)
    parser.check_output(path)
    result = digests()
    with parser.output_errors(path):
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    errors = sum(v.startswith("error:") for v in result.values())
    print(f"wrote {len(result)} digests ({errors} record an error) to {path}")


if __name__ == "__main__":
    main()
