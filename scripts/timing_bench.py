#!/usr/bin/env python3
"""Wall-clock benchmark of MLE/oQLS/gQLS fitting over large sample sizes.

Sampling time is reported separately from fitting time.  Sizes beyond 1e8
work but need memory (8 bytes per draw) and patience; a per-fit timeout
marks cells that exceed the budget, mirroring non-convergence dashes in
hand-made tables.

Usage: python scripts/timing_bench.py --sizes 1e6,1e7 --repeats 3
"""
import csv
import pathlib

from qls.cli import _arg_type, _Parser
from qls.families import get_family
from qls.simulate import run_timing

FAMILIES = ["cauchy", "exponential", "laplace", "levy", "logistic", "normal"]


def main() -> None:
    parser = _Parser(description=__doc__)  # usage errors exit 1, as in qls
    parser.add_argument("--families", default=",".join(FAMILIES))
    parser.add_argument("--methods", default="mle,oqls,gqls")
    parser.add_argument("--sizes", default="1e6,1e7", type=_arg_type(
        lambda text: [int(float(t)) for t in text.split(",") if t.strip()], "expected sizes"))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/timing.csv")
    args = parser.parse_args()

    path = pathlib.Path(args.out)
    parser.check_output(path)  # before the benchmark, not after it
    with parser.library_errors():
        rows = run_timing(
            [get_family(n) for n in args.families.split(",") if n.strip()],
            [m.strip() for m in args.methods.split(",") if m.strip()],
            sorted(args.sizes), repeats=args.repeats, timeout=args.timeout, seed=args.seed,
        )
    with parser.output_errors(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].__dict__.keys()))
            writer.writeheader()
            for r in rows:
                writer.writerow(r.__dict__)
    print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
