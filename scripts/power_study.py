#!/usr/bin/env python3
"""Rejection-rate tables for the goodness-of-fit tests.

Crosses null families against data generators (including the 5%-contaminated
normal mixture) over the three standard grids, for the in-sample test or the
bootstrap-calibrated out-of-sample test.

Usage: python scripts/power_study.py --test w --n 1000 --m 2000
       python scripts/power_study.py --test wout --n 100 --m 300 --B 300
"""
import csv
import pathlib
import sys

from qls.cli import _Parser
from qls.families import Params, get_family
from qls.quantiles import make_grid
from qls.simulate import ContaminationSpec, run_power_study

H0 = ["cauchy", "gumbel", "laplace", "logistic", "normal"]
BOUNDS = [(0.02, 0.98), (0.05, 0.95), (0.10, 0.90)]


def generators():
    gens = [ContaminationSpec(base_family=get_family(n), base_params=Params(0, 1))
            for n in H0]
    gens.append(ContaminationSpec(
        base_family=get_family("normal"), base_params=Params(0.0, 1.0),
        contaminant_family=get_family("normal"),
        contaminant_params=Params(1.0, 3.0), epsilon=0.05,
    ))
    return gens


def main() -> None:
    parser = _Parser(description=__doc__)  # usage errors exit 1, as in qls
    parser.add_argument("--test", choices=("w", "wout"), default="w")
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--m", type=int, default=2000)
    parser.add_argument("--B", type=int, default=1000)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    path = pathlib.Path(args.out or f"results/power_{args.test}_n{args.n}.csv")
    parser.check_output(path)  # before the study, not after it
    with parser.library_errors():
        cells = run_power_study(
            h0_families=[get_family(n) for n in H0],
            generators=generators(),
            grids=[make_grid(a, b, 25) for a, b in BOUNDS],
            n=args.n, m=args.m, alpha=args.alpha, test=args.test, B=args.B,
            seed=args.seed,
        )
    with parser.output_errors(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(cells[0].as_row()))
            writer.writeheader()
            for c in cells:
                writer.writerow(c.as_row())
    for c in cells:
        for tag in c.warnings:
            print(f"warning: {c.label}: {tag}", file=sys.stderr)
    print(f"wrote {path} ({len(cells)} cells)")


if __name__ == "__main__":
    main()
