#!/usr/bin/env python3
"""Export influence-function curves for both estimators across families.

One CSV per family/kind with columns x,if_mu,if_sigma, sampled densely plus
paired points straddling every jump so the step geometry plots faithfully.

Usage: python scripts/influence_curves.py --outdir results/influence
"""
import csv
import pathlib

from qls.cli import _Parser
from qls.families import Params, get_family
from qls.quantiles import make_grid
from qls.robustness import influence_curve

SYMMETRIC = ["cauchy", "laplace", "logistic", "normal"]
ASYMMETRIC = ["exponential", "gumbel", "levy"]


def export(fam_name, kind, grid, x_range, outdir):
    fam = get_family(fam_name)
    curve = influence_curve(kind, fam, Params(0.0, 1.0), grid, x_range, points=801)
    path = outdir / f"if_{fam_name}_{kind}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "if_mu", "if_sigma"])
        for x, m, s in zip(curve.x, curve.if_mu, curve.if_sigma):
            writer.writerow([f"{x:.10g}", f"{m:.10g}", f"{s:.10g}"])
    print(f"wrote {path}")


def main() -> None:
    parser = _Parser(description=__doc__)  # usage errors exit 1, as in qls
    parser.add_argument("--outdir", default="results/influence")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    sym_grid = make_grid(0.05, 0.95, 25)
    asym_grid = make_grid(0.10, 0.75, 25)
    with parser.output_errors(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        for kind in ("oqls", "gqls"):
            for name in SYMMETRIC:
                lo = float(get_family(name).qf(0.01))
                hi = float(get_family(name).qf(0.99))
                export(name, kind, sym_grid, (1.5 * lo, 1.5 * hi), outdir)
            for name in ASYMMETRIC:
                fam = get_family(name)
                lo, hi = float(fam.qf(0.01)), float(fam.qf(0.99))
                pad = 0.25 * (hi - lo)
                export(name, kind, asym_grid, (lo - pad, hi + pad), outdir)


if __name__ == "__main__":
    main()
