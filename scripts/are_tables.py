#!/usr/bin/env python3
"""Emit the efficiency tables: generalized-fit cells over three bounds pairs
and k in {15, 20, 25} for all three modes, plus the joint-mode ordinary-fit
cells over a wide k range.

Usage: python scripts/are_tables.py [--outdir results]
"""
import csv
import pathlib

from qls.cli import _Parser
from qls.efficiency import are_table
from qls.families import ParamMode, get_family
from qls.quantiles import make_grid

FAMILIES = ["cauchy", "laplace", "logistic", "normal", "gumbel"]
BOUNDS = [(0.02, 0.98), (0.05, 0.95), (0.10, 0.90)]


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "kind", "mode", "a", "b", "k", "are"])
        for r in rows:
            writer.writerow([r.family, r.kind, r.mode.value, r.a, r.b, r.k,
                             "" if r.are is None else f"{r.are:.6f}"])
    print(f"wrote {path} ({len(rows)} rows)")


def main() -> None:
    parser = _Parser(description=__doc__)  # usage errors exit 1, as in qls
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    fams = [get_family(n) for n in FAMILIES]
    modes = [ParamMode.LOCATION_ONLY, ParamMode.SCALE_ONLY, ParamMode.LOCATION_SCALE]
    gqls_grids = [make_grid(a, b, k) for a, b in BOUNDS for k in (15, 20, 25)]
    oqls_grids = [make_grid(0.05, 0.95, k) for k in (15, 20, 25, 50, 75, 100, 200)]

    with parser.output_errors(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        write_rows(outdir / "are_gqls.csv", are_table("gqls", fams, gqls_grids, modes))
        write_rows(outdir / "are_oqls_joint.csv",
                   are_table("oqls", fams, oqls_grids, [ParamMode.LOCATION_SCALE]))


if __name__ == "__main__":
    main()
