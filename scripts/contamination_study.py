#!/usr/bin/env python3
"""Estimator comparison under the mixture model (1-eps) F0 + eps G.

Runs MLE and the quantile-LS estimators on all three standard grids for a
range of contamination levels and writes per-estimator summaries
(bias, sqrt-MSE, five-number) to CSV.

Usage: python scripts/contamination_study.py --family normal --n 1000 \
           --m 2000 --out results/contamination_normal.csv
"""
import csv
import pathlib

from qls.cli import _Parser
from qls.families import Params, get_family
from qls.quantiles import make_grid
from qls.simulate import ContaminationSpec, EstimatorSpec, McConfig, run_mc

BOUNDS = [(0.02, 0.98), (0.05, 0.95), (0.10, 0.90)]
EPSILONS = [0.0, 0.03, 0.05, 0.08]


def main() -> None:
    parser = _Parser(description=__doc__)  # usage errors exit 1, as in qls
    parser.add_argument("--family", default="normal")
    parser.add_argument("--contaminant", default="normal",
                        help="normal or exponential, located at 1 with scale 3")
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--m", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--out", default="results/contamination.csv")
    args = parser.parse_args()

    with parser.library_errors():
        base = get_family(args.family)
        contaminant = get_family(args.contaminant)
        estimators = (EstimatorSpec("mle"),) + tuple(
            EstimatorSpec(method, make_grid(a, b, 25))
            for method in ("oqls", "gqls") for a, b in BOUNDS
        )
        # every study is checked before the output file is opened
        studies = [McConfig(spec=ContaminationSpec(
                       base_family=base, base_params=Params(0.0, 1.0),
                       contaminant_family=contaminant,
                       contaminant_params=Params(1.0, 3.0), epsilon=eps),
                       n=args.n, m=args.m, estimators=estimators, seed=args.seed)
                   for eps in EPSILONS]
        path = pathlib.Path(args.out)
        with parser.output_errors(path):
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = None
                for config in studies:
                    eps = config.spec.epsilon
                    for row in run_mc(config).as_rows():
                        row = {"epsilon": eps, **row}
                        if writer is None:
                            writer = csv.DictWriter(fh, fieldnames=list(row.keys()))
                            writer.writeheader()
                        writer.writerow(row)
                    print(f"epsilon={eps} done")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
