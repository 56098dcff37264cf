"""Command-line interface.

Subcommands: fit, gof, are, influence, simulate, bench.  Exit codes: 0 on
success, 1 for usage errors, 2 for input/parse failures, 3 for numeric or
estimation failures.  Output goes to stdout (or --out) as text, JSON, or
CSV; runs that consume randomness take --seed and are fully reproducible.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import os
import pathlib
import sys
from dataclasses import dataclass

import numpy as np

from . import gof as gof_mod
from .efficiency import are_table
from .errors import DomainError, InvalidGrid, QlsError
from .estimators import fit_sample
from .families import FAMILIES, Params, check_seed, get_family, parse_mode
from .quantiles import QuantileGrid, make_grid
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

    @contextlib.contextmanager
    def library_errors(self):
        """A script's body: a library error raised in it (a bad argument
        the parser let through, such as ``--m 0``) ends the script with one
        error line and exit 1, as a usage error does."""
        try:
            yield
        except QlsError as exc:
            print(f"{self.prog}: error: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE) from None

    @contextlib.contextmanager
    def output_errors(self, path):
        """A script's writes to ``path``: an OSError raised in them (a parent
        that is a file, a directory where a file goes, no permission) ends
        the script with one error line and exit 2, as ``qls --out`` does."""
        try:
            yield
        except OSError as exc:
            print(f"{self.prog}: error: cannot write {path}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_INPUT) from None

    def check_output(self, path) -> None:
        """End the script as ``output_errors`` does if ``path`` cannot be
        written: it is a directory or a read-only file, or its nearest
        existing ancestor is a file or read-only.  Writes nothing, so a
        script can check its output before a long study and still leave no
        file when the study raises a library error."""
        path = pathlib.Path(path)
        with self.output_errors(path):
            nearest = next(p for p in (path, *path.parents) if p.exists())
            if nearest == path and path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            if nearest != path and not nearest.is_dir():
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(nearest))
            if not os.access(nearest, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(nearest))


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
        with open(path, "r", encoding="utf-8") as fh:
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
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not values:
        raise InputError(f"{path}: no numeric data found")
    return Dataset(values=np.asarray(values), source=path, warnings=tuple(warnings))


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise InputError(f"cannot write {out}: {exc}") from exc
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


def _output_args(p: argparse.ArgumentParser, fmt: str) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default=fmt)
    p.add_argument("--out", default=None, help="write output to this file")


def _grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, default=0.05, help="lowest level (default 0.05)")
    p.add_argument("--b", type=float, default=0.95, help="highest level (default 0.95)")
    p.add_argument("--k", type=int, default=25, help="number of levels (default 25)")


def _arg_type(parse, expected: str):
    """An argparse ``type=`` function: ``parse`` of the option's text, and a
    usage error naming what was expected when it raises ValueError."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, OverflowError):
            raise argparse.ArgumentTypeError(f"{expected}, got {text!r}") from None
    return convert


def _positive_int(text: str) -> int:
    if (value := int(text)) < 1:
        raise ValueError(text)
    return value


def _parse_k_list(text: str) -> list[int]:
    """Comma-separated sizes k and ranges lo:hi, both ends included."""
    ks: list[int] = []
    for part in filter(str.strip, text.split(",")):
        lo, sep, hi = part.partition(":")
        ks.extend(range(int(lo), int(hi if sep else lo) + 1))
    return ks


def _parse_pair(text: str) -> tuple[float, float]:
    a, b = text.split(":")
    return float(a), float(b)


# --seed: a non-negative integer, else a usage error before any work
_seed_arg = _arg_type(lambda text: check_seed(int(text)), "seed must be a non-negative integer")
_count_arg = _arg_type(_positive_int, "expected a positive integer")


def _families_arg(text: str) -> list:
    if text.strip().lower() == "all":
        return [get_family(n) for n in FAMILIES]
    return [get_family(t) for t in text.split(",") if t.strip()]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    if args.method == "mle" and args.known_sigma is not None:
        # fit_mle takes no scale: silently ignoring one would misreport the fit
        raise DomainError("--known-sigma applies to the QLS methods only; "
                          "the MLE does not take a known scale")
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
        for name, val in zip(mode.names, se):
            report[f"se_{name}"] = float(val)
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    elif args.format == "csv":
        _emit_rows([report], "csv", args.out)
    else:
        lines = [f"{k}: {_fmt(v)}" for k, v in report.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_gof(args) -> int:
    data = read_data(args.data)
    for warning in data.warnings:  # the gof rows have no warnings column
        print(f"warning: {warning}", file=sys.stderr)
    fams = ([get_family(n) for n in ALL_GOF_FAMILIES]
            if args.family.strip().lower() == "all" else [get_family(args.family)])
    rows = []
    for fam, (fit, res) in zip(fams, gof_mod._gof(
            data.values, fams, make_grid(args.a, args.b, args.k), args.test, args.out_levels,
            B=args.B, seed=args.seed)):
        failed = isinstance(res, QlsError)
        tags = (fit.warnings if fit else ()) + (() if failed else res.warnings)
        for tag in dict.fromkeys(tags):  # the fit's, then the out-levels' (no warnings column)
            print(f"warning: {fam.name}: {tag}", file=sys.stderr)
        if failed:
            raise res
        count = {"dof": res.dof} if args.test == "w" else {"B": res.b_replicates}
        row = {"family": fam.name, "mu": fit.mu, "sigma": fit.sigma, "test": args.test,
               "statistic": res.statistic, **count, "p_value": res.p_value}
        if args.test == "wout":
            row["p_display"] = (f"<{1.0 / res.b_replicates:.4g}" if res.p_value == 0
                                else f"{res.p_value:.4g}")
        rows.append({**row, "reject": bool(res.p_value <= args.alpha)})
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


def _cmd_are(args) -> int:
    fams = _families_arg(args.families)
    grids = [make_grid(a, b, k) for a, b in args.grids for k in args.k]
    modes = [parse_mode(t) for t in args.modes.split(",") if t.strip()]
    rows = [{"family": res.family, "kind": res.kind, "mode": res.mode.value,
             "a": res.a, "b": res.b, "k": res.k,
             "are": "NA" if res.are is None else f"{res.are:.6f}"}
            for res in are_table(args.kind, fams, grids, modes)]
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


def _cmd_influence(args) -> int:
    fam = get_family(args.family)
    grid = make_grid(args.a, args.b, args.k)
    curve = influence_curve(args.kind, fam, Params(args.mu, args.sigma), grid,
                            args.range, points=args.points)
    rows = [{"x": float(x), "if_mu": float(m), "if_sigma": float(s)}
            for x, m, s in zip(curve.x, curve.if_mu, curve.if_sigma)]
    _emit_rows(rows, "csv" if args.format == "text" else args.format, args.out)
    return EXIT_OK


_JSON_TYPES = {int: "integer", float: "number", str: "string", list: "array", dict: "object"}
_REQUIRED = object()


def _typed(value, kind, what: str):
    """A config value of JSON type ``kind`` (a number may be an integer),
    as ``kind``; an input error naming ``what`` when it has another type."""
    kinds = (int, float) if kind is float else kind
    if not isinstance(value, bool) and isinstance(value, kinds):
        try:
            return kind(value)
        except OverflowError:  # an integer too large for a float
            pass
    raise InputError(f"study config: {what} must be a JSON {_JSON_TYPES[kind]}, "
                     f"got {json.dumps(value)[:40]}")


def _field(cfg: dict, key: str, kind, default=_REQUIRED):
    """``cfg[key]`` checked by ``_typed``, or ``default`` when the key is
    absent; an input error when a key without a default is missing."""
    if key not in cfg:
        if default is _REQUIRED:
            raise InputError(f"study config has no {key!r}")
        return default
    return _typed(cfg[key], kind, repr(key))


def _config_grid(cfg) -> QuantileGrid:
    cfg = _typed(cfg, dict, "a grid")
    return make_grid(_field(cfg, "a", float, 0.05), _field(cfg, "b", float, 0.95),
                     _field(cfg, "k", int, 25))


def _study_from_config(cfg, seed_override: int | None):
    """The study's output rows and its warning lines.  A value of the wrong
    JSON type is an input error; a config seed must be a JSON integer, and
    the library refuses any other as InvalidSeed."""
    cfg = _typed(cfg, dict, "the study")
    seed = cfg.get("seed", 0) if seed_override is None else seed_override
    base = get_family(_field(cfg, "family", str))
    base_params = Params(_field(cfg, "mu", float, 0.0), _field(cfg, "sigma", float, 1.0))
    cont = cfg.get("contaminant")
    if cont:
        cont = _typed(cont, dict, "'contaminant'")
        spec = ContaminationSpec(
            base_family=base, base_params=base_params,
            contaminant_family=get_family(_field(cont, "family", str)),
            contaminant_params=Params(_field(cont, "mu", float, 0.0),
                                      _field(cont, "sigma", float, 1.0)),
            epsilon=_field(cont, "epsilon", float, 0.0),
        )
    else:
        spec = ContaminationSpec(base_family=base, base_params=base_params)
    n, m = _field(cfg, "n", int), _field(cfg, "M", int)

    kind = cfg.get("study", "mc")
    if kind == "mc":
        estimators = []
        for e in _field(cfg, "estimators", list):
            e = _typed(e, dict, "an estimator")
            method = _field(e, "method", str)
            estimators.append(EstimatorSpec(
                method=method, grid=None if method == "mle" else _config_grid(e),
                mode=parse_mode(_field(e, "mode", str, "loc-scale")),
                known_mu=_field(e, "known_mu", float, 0.0),
                known_sigma=_field(e, "known_sigma", float, None),
            ))
        summary = run_mc(McConfig(spec=spec, n=n, m=m, estimators=tuple(estimators),
                                  seed=seed))
        return summary.as_rows(), [f"{label}: {tag}" for label, tags in summary.warnings.items()
                                   for tag in tags]
    if kind == "power":
        h0 = [get_family(_typed(name, str, "a null family"))
              for name in _field(cfg, "h0_families", list)]
        grids = [_config_grid(g) for g in _field(cfg, "grids", list, [{}])]
        cells = run_power_study(
            h0, [spec], grids, n=n, m=m, alpha=_field(cfg, "alpha", float, 0.05),
            test=_field(cfg, "test", str, "w"), B=_field(cfg, "B", int, 1000), seed=seed,
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
    except ValueError as exc:  # not UTF-8, or not JSON
        raise InputError(f"{args.config}: invalid JSON: {exc}") from exc
    rows, warnings = _study_from_config(cfg, args.seed)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    fams = _families_arg(args.families)
    if sorted(args.sizes) != args.sizes:
        raise InvalidGrid("sizes must be ascending")
    methods = [t.strip() for t in args.methods.split(",") if t.strip()]
    rows = run_timing(fams, methods, args.sizes, repeats=args.repeats,
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


    p_fit = sub.add_parser("fit", help="estimate location/scale from a data file")
    p_fit.add_argument("--family", required=True)
    p_fit.add_argument("--data", required=True)
    _grid_args(p_fit)
    p_fit.add_argument("--method", choices=("oqls", "gqls", "mle"), default="gqls")
    p_fit.add_argument("--mode", default="loc-scale")
    p_fit.add_argument("--known-mu", dest="known_mu", type=float, default=0.0)
    p_fit.add_argument("--known-sigma", dest="known_sigma", type=float, default=None,
                       help="the supplied scale of a location-only QLS fit (default 1)")
    _output_args(p_fit, "text")
    p_fit.set_defaults(func=_cmd_fit)

    p_gof = sub.add_parser("gof", help="goodness-of-fit tests")
    p_gof.add_argument("--family", required=True, help="family name or 'all'")
    p_gof.add_argument("--data", required=True)
    _grid_args(p_gof)
    p_gof.add_argument("--test", choices=("w", "wout"), default="w")
    p_gof.add_argument("--B", type=_count_arg, default=1000)
    p_gof.add_argument("--out-levels", dest="out_levels", default=None,
                       type=_arg_type(lambda text: np.asarray(
                           [float(t) for t in text.split(",") if t.strip()]),
                           "expected comma-separated levels"),
                       help="comma-separated validation levels (default 0.01..0.99 step 0.02)")
    p_gof.add_argument("--alpha", type=float, default=0.05)
    p_gof.add_argument("--seed", type=_seed_arg, default=0)
    _output_args(p_gof, "text")
    p_gof.set_defaults(func=_cmd_gof)

    p_are = sub.add_parser("are", help="asymptotic relative efficiency tables")
    p_are.add_argument("--kind", choices=("oqls", "gqls"), default="gqls")
    p_are.add_argument("--families", default="all")
    p_are.add_argument("--grids", default="0.05:0.95",
                       type=_arg_type(lambda text: [
                           _parse_pair(t) for t in text.split(",") if t.strip()],
                           "expected comma-separated a:b pairs"),
                       help="comma-separated a:b pairs")
    p_are.add_argument("--k", default="25",
                       type=_arg_type(_parse_k_list, "expected integers and lo:hi ranges"),
                       help="comma list and lo:hi ranges")
    p_are.add_argument("--modes", default="loc-scale")
    _output_args(p_are, "csv")
    p_are.set_defaults(func=_cmd_are)

    p_inf = sub.add_parser("influence", help="influence-function curves")
    p_inf.add_argument("--family", required=True)
    p_inf.add_argument("--kind", choices=("oqls", "gqls"), default="gqls")
    _grid_args(p_inf)
    p_inf.add_argument("--range", default="-10:10", type=_arg_type(_parse_pair, "expected lo:hi"),
                       help="lo:hi of the x grid")
    p_inf.add_argument("--points", type=_count_arg, default=201)
    p_inf.add_argument("--mu", type=float, default=0.0)
    p_inf.add_argument("--sigma", type=float, default=1.0)
    _output_args(p_inf, "csv")
    p_inf.set_defaults(func=_cmd_influence)

    p_sim = sub.add_parser("simulate", help="run a study described by a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=_seed_arg, default=None,
                       help="override the config seed")
    _output_args(p_sim, "csv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("bench", help="timing benchmarks")
    p_bench.add_argument("--families", default="normal")
    p_bench.add_argument("--methods", default="oqls,gqls")
    p_bench.add_argument("--sizes", default="1e6", help="ascending comma list", type=_arg_type(
        lambda text: [int(float(t)) for t in text.split(",") if t.strip()], "expected sizes"))
    p_bench.add_argument("--repeats", type=_count_arg, default=3)
    p_bench.add_argument("--timeout", type=float, default=None)
    p_bench.add_argument("--seed", type=_seed_arg, default=0)
    _grid_args(p_bench)
    _output_args(p_bench, "csv")
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
