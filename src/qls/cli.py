"""Command-line interface.

Subcommands: fit, gof, are, influence, simulate, bench.  Exit codes: 0 on
success, 1 for usage errors, 2 for input/parse failures, 3 for numeric or
estimation failures.  Output goes to stdout (or --out) as text, JSON, or
CSV; runs that consume randomness take --seed and are fully reproducible.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import gof as gof_mod
from .efficiency import are_table
from .errors import DomainError, InvalidGrid, QlsError
from .estimators import FitPlan, fit_gqls, fit_sample
from .families import FAMILIES, ParamMode, Params, check_seed, get_family, parse_mode
from .quantiles import empirical_quantiles, make_grid
from .robustness import breakdown_point, influence_curve
from .simulate import (
    ContaminationSpec,
    EstimatorSpec,
    McConfig,
    run_mc,
    run_power_study,
    run_timing,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# families reported by `gof --family all` (real-line, bell-capable shapes)
ALL_GOF_FAMILIES = ("cauchy", "gumbel", "laplace", "logistic", "normal")


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this tool reserves 2 for
    input files, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class InputError(Exception):
    """Bad data file (missing, malformed, or non-finite values)."""


@dataclass(frozen=True)
class Dataset:
    values: np.ndarray
    source: str
    warnings: tuple[str, ...] = ()


def read_data(path: str) -> Dataset:
    """One numeric value per line; '#' comments and blank lines are skipped;
    a single non-numeric first row is treated as a CSV header.  NaN or Inf
    values are rejected with a line-numbered error."""
    values: list[float] = []
    warnings: list[str] = []
    header_allowed = True
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, 1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            token = s.split(",")[0].strip()
            try:
                v = float(token)
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    warnings.append(f"line 1-ish header skipped: {s!r}")
                    continue
                raise InputError(f"{path}:{lineno}: not a number: {s!r}") from None
            header_allowed = False
            if not np.isfinite(v):
                raise InputError(f"{path}:{lineno}: non-finite value {token!r}")
            values.append(v)
    if not values:
        raise InputError(f"{path}: no numeric data found")
    return Dataset(values=np.asarray(values), source=path, warnings=tuple(warnings))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _rows_to_text(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)\n"
    cols = list(rows[0].keys())
    table = [[_fmt(r[c]) for c in cols] for r in rows]
    widths = [max(len(c), *(len(t[i]) for t in table)) for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    for t in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(t, widths)))
    return "\n".join(lines) + "\n"


def _emit_rows(rows: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "json":
        _emit(json.dumps(rows, indent=2) + "\n", out)
    elif fmt == "csv":
        _emit(_rows_to_csv(rows), out)
    else:
        _emit(_rows_to_text(rows), out)


def _grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, default=0.05, help="lowest level (default 0.05)")
    p.add_argument("--b", type=float, default=0.95, help="highest level (default 0.95)")
    p.add_argument("--k", type=int, default=25, help="number of levels (default 25)")


def _seed_arg(text: str) -> int:
    """--seed: a non-negative integer, else a usage error before any work."""
    try:
        return check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}") from None


def _parse_levels(text: str) -> np.ndarray:
    return np.asarray([float(t) for t in text.split(",") if t.strip()], dtype=float)


def _parse_k_list(text: str) -> list[int]:
    ks: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = part.split(":")
            ks.extend(range(int(lo), int(hi) + 1))
        else:
            ks.append(int(part))
    return ks


def _parse_grid_pairs(text: str) -> list[tuple[float, float]]:
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        a, b = part.split(":")
        pairs.append((float(a), float(b)))
    return pairs


def _families_arg(text: str) -> list:
    if text.strip().lower() == "all":
        return [get_family(n) for n in FAMILIES]
    return [get_family(t) for t in text.split(",") if t.strip()]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    data = read_data(args.data)
    fam = get_family(args.family)
    mode = parse_mode(args.mode)
    grid = make_grid(args.a, args.b, args.k)
    fit = fit_sample(data.values, fam, grid, args.method, mode,
                     known_mu=args.known_mu, known_sigma=args.known_sigma)
    bp = breakdown_point(grid)
    se = fit.stderr()
    report = {
        "family": fam.name,
        "method": args.method,
        "mode": mode.value,
        "n": int(data.values.size),
        "a": grid.a, "b": grid.b, "k": grid.k,
        "mu": fit.mu,
        "sigma": fit.sigma,
        "breakdown_point": bp.value,
        "warnings": list(data.warnings) + list(fit.warnings),
    }
    if se is not None:
        names = ("mu", "sigma") if mode is ParamMode.LOCATION_SCALE else (
            ("mu",) if mode is ParamMode.LOCATION_ONLY else ("sigma",))
        for name, val in zip(names, se):
            report[f"se_{name}"] = float(val)
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    elif args.format == "csv":
        _emit_rows([report], "csv", args.out)
    else:
        lines = [f"{k}: {_fmt(v)}" for k, v in report.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _gof_one(fam, data, args, grid) -> dict:
    plan = FitPlan.for_family(fam, grid, "gqls")
    y = empirical_quantiles(data, grid)
    fit = fit_gqls(y, plan.x, None, plan=plan)
    for tag in fit.warnings:  # the gof rows have no warnings column
        print(f"warning: {fam.name}: {tag}", file=sys.stderr)
    row = {"family": fam.name, "mu": fit.mu, "sigma": fit.sigma}
    if args.test == "w":
        res = gof_mod.plan_w_test(plan, y, fit)
        row.update({"test": "w", "statistic": res.statistic, "dof": res.dof,
                    "p_value": res.p_value})
    else:
        out_grid = gof_mod.make_out_grid(
            _parse_levels(args.out_levels) if args.out_levels else None)
        res = gof_mod.bootstrap_pvalue(data, fam, grid, out_grid,
                                       B=args.B, seed=args.seed)
        shown_p = res.p_value if res.p_value > 0 else 1.0 / res.b_replicates
        row.update({"test": "wout", "statistic": res.statistic,
                    "B": res.b_replicates, "p_value": res.p_value,
                    "p_display": (f"<{shown_p:.4g}" if res.p_value == 0
                                  else f"{res.p_value:.4g}")})
    for tag in res.warnings:  # the out-levels' tags, which the fit does not see
        if tag not in fit.warnings:
            print(f"warning: {fam.name}: {tag}", file=sys.stderr)
    row["reject"] = bool(res.p_value <= args.alpha)
    return row


def _cmd_gof(args) -> int:
    data = read_data(args.data)
    for warning in data.warnings:  # the gof rows have no warnings column
        print(f"warning: {warning}", file=sys.stderr)
    grid = make_grid(args.a, args.b, args.k)
    fams = ([get_family(n) for n in ALL_GOF_FAMILIES]
            if args.family.strip().lower() == "all" else [get_family(args.family)])
    rows = [_gof_one(fam, data.values, args, grid) for fam in fams]
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


def _cmd_are(args) -> int:
    fams = _families_arg(args.families)
    grids = []
    for a, b in _parse_grid_pairs(args.grids):
        for k in _parse_k_list(args.k):
            grids.append(make_grid(a, b, k))
    modes = [parse_mode(t) for t in args.modes.split(",") if t.strip()]
    rows = []
    for res in are_table(args.kind, fams, grids, modes):
        rows.append({
            "family": res.family, "kind": res.kind, "mode": res.mode.value,
            "a": res.a, "b": res.b, "k": res.k,
            "are": "NA" if res.are is None else f"{res.are:.6f}",
        })
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


def _cmd_influence(args) -> int:
    fam = get_family(args.family)
    grid = make_grid(args.a, args.b, args.k)
    lo, hi = (float(t) for t in args.range.split(":"))
    curve = influence_curve(args.kind, fam, Params(args.mu, args.sigma), grid,
                            (lo, hi), points=args.points)
    rows = [{"x": float(x), "if_mu": float(m), "if_sigma": float(s)}
            for x, m, s in zip(curve.x, curve.if_mu, curve.if_sigma)]
    _emit_rows(rows, "csv" if args.format == "text" else args.format, args.out)
    return EXIT_OK


def _study_from_config(cfg: dict, seed_override: int | None):
    """The study's output rows and its warning lines.  A config seed must be
    a JSON integer; the library refuses any other as InvalidSeed."""
    seed = cfg.get("seed", 0) if seed_override is None else seed_override
    base = get_family(cfg["family"])
    base_params = Params(float(cfg.get("mu", 0.0)), float(cfg.get("sigma", 1.0)))
    cont = cfg.get("contaminant")
    if cont:
        spec = ContaminationSpec(
            base_family=base, base_params=base_params,
            contaminant_family=get_family(cont["family"]),
            contaminant_params=Params(float(cont.get("mu", 0.0)),
                                      float(cont.get("sigma", 1.0))),
            epsilon=float(cont.get("epsilon", 0.0)),
        )
    else:
        spec = ContaminationSpec(base_family=base, base_params=base_params)

    kind = cfg.get("study", "mc")
    if kind == "mc":
        estimators = []
        for e in cfg["estimators"]:
            method = e["method"]
            grid = None
            if method != "mle":
                grid = make_grid(float(e.get("a", 0.05)), float(e.get("b", 0.95)),
                                 int(e.get("k", 25)))
            estimators.append(EstimatorSpec(
                method=method, grid=grid,
                mode=parse_mode(e.get("mode", "loc-scale")),
                known_mu=float(e.get("known_mu", 0.0)),
                known_sigma=float(e.get("known_sigma", 1.0)),
            ))
        config = McConfig(spec=spec, n=int(cfg["n"]), m=int(cfg["M"]),
                          estimators=tuple(estimators), seed=seed)
        summary = run_mc(config)
        return summary.as_rows(), [f"{label}: {tag}" for label, tags in summary.warnings.items()
                                   for tag in tags]
    if kind == "power":
        h0 = [get_family(name) for name in cfg["h0_families"]]
        grids = [make_grid(float(g.get("a", 0.05)), float(g.get("b", 0.95)),
                           int(g.get("k", 25))) for g in cfg.get("grids", [{}])]
        cells = run_power_study(
            h0, [spec], grids, n=int(cfg["n"]), m=int(cfg["M"]),
            alpha=float(cfg.get("alpha", 0.05)), test=cfg.get("test", "w"),
            B=int(cfg.get("B", 1000)), seed=seed,
        )
        return [cell.as_row() for cell in cells], [
            f"{cell.label}: {tag}" for cell in cells for tag in cell.warnings]
    raise DomainError(f"unknown study kind {kind!r}")


def _cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.config}: invalid JSON: {exc}") from exc
    rows, warnings = _study_from_config(cfg, args.seed)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    fams = _families_arg(args.families)
    sizes = [int(float(t)) for t in args.sizes.split(",") if t.strip()]
    if sorted(sizes) != sizes:
        raise InvalidGrid("sizes must be ascending")
    methods = [t.strip() for t in args.methods.split(",") if t.strip()]
    rows = run_timing(fams, methods, sizes, repeats=args.repeats,
                      grid=make_grid(args.a, args.b, args.k),
                      timeout=args.timeout, seed=args.seed)
    out_rows = [{
        "family": r.family, "method": r.method, "n": r.n,
        "sample_seconds": f"{r.sample_seconds:.6f}",
        "fit_seconds": f"{r.fit_seconds:.6f}",
        "repeats": r.repeats,
        "timed_out": "**" if r.timed_out else "",
    } for r in rows]
    _emit_rows(out_rows, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="qls", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    common = {"--format": dict(choices=("text", "json", "csv"), default="text"),
              "--out": dict(default=None, help="write output to this file")}

    p_fit = sub.add_parser("fit", help="estimate location/scale from a data file")
    p_fit.add_argument("--family", required=True)
    p_fit.add_argument("--data", required=True)
    _grid_args(p_fit)
    p_fit.add_argument("--method", choices=("oqls", "gqls", "mle"), default="gqls")
    p_fit.add_argument("--mode", default="loc-scale")
    p_fit.add_argument("--known-mu", dest="known_mu", type=float, default=0.0)
    p_fit.add_argument("--known-sigma", dest="known_sigma", type=float, default=1.0)
    for flag, kw in common.items():
        p_fit.add_argument(flag, **kw)
    p_fit.set_defaults(func=_cmd_fit)

    p_gof = sub.add_parser("gof", help="goodness-of-fit tests")
    p_gof.add_argument("--family", required=True, help="family name or 'all'")
    p_gof.add_argument("--data", required=True)
    _grid_args(p_gof)
    p_gof.add_argument("--test", choices=("w", "wout"), default="w")
    p_gof.add_argument("--B", type=int, default=1000)
    p_gof.add_argument("--out-levels", dest="out_levels", default=None,
                       help="comma-separated validation levels (default 0.01..0.99 step 0.02)")
    p_gof.add_argument("--alpha", type=float, default=0.05)
    p_gof.add_argument("--seed", type=_seed_arg, default=0)
    for flag, kw in common.items():
        p_gof.add_argument(flag, **kw)
    p_gof.set_defaults(func=_cmd_gof)

    p_are = sub.add_parser("are", help="asymptotic relative efficiency tables")
    p_are.add_argument("--kind", choices=("oqls", "gqls"), default="gqls")
    p_are.add_argument("--families", default="all")
    p_are.add_argument("--grids", default="0.05:0.95",
                       help="comma-separated a:b pairs")
    p_are.add_argument("--k", default="25", help="comma list and lo:hi ranges")
    p_are.add_argument("--modes", default="loc-scale")
    for flag, kw in common.items():
        p_are.add_argument(flag, **{**kw, **({"default": "csv"} if flag == "--format" else {})})
    p_are.set_defaults(func=_cmd_are)

    p_inf = sub.add_parser("influence", help="influence-function curves")
    p_inf.add_argument("--family", required=True)
    p_inf.add_argument("--kind", choices=("oqls", "gqls"), default="gqls")
    _grid_args(p_inf)
    p_inf.add_argument("--range", default="-10:10", help="lo:hi of the x grid")
    p_inf.add_argument("--points", type=int, default=201)
    p_inf.add_argument("--mu", type=float, default=0.0)
    p_inf.add_argument("--sigma", type=float, default=1.0)
    for flag, kw in common.items():
        p_inf.add_argument(flag, **{**kw, **({"default": "csv"} if flag == "--format" else {})})
    p_inf.set_defaults(func=_cmd_influence)

    p_sim = sub.add_parser("simulate", help="run a study described by a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=_seed_arg, default=None,
                       help="override the config seed")
    for flag, kw in common.items():
        p_sim.add_argument(flag, **{**kw, **({"default": "csv"} if flag == "--format" else {})})
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("bench", help="timing benchmarks")
    p_bench.add_argument("--families", default="normal")
    p_bench.add_argument("--methods", default="oqls,gqls")
    p_bench.add_argument("--sizes", default="1e6", help="ascending comma list")
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--timeout", type=float, default=None)
    p_bench.add_argument("--seed", type=_seed_arg, default=0)
    _grid_args(p_bench)
    for flag, kw in common.items():
        p_bench.add_argument(flag, **{**kw, **({"default": "csv"} if flag == "--format" else {})})
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidGrid, DomainError) as exc:
        print(f"qls: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"qls: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QlsError as exc:
        print(f"qls: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
