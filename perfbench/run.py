#!/usr/bin/env python3
"""qls benchmark: one workload per process, a closed loop of one client.

    python3 perfbench/run.py --workload mc_contam --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; ``qls`` is imported from its ``src/``
and nowhere else.  With ``--trace 0`` the run times calls into the public
functions of ``qls`` for ``--seconds`` seconds and reports the end-to-end
metrics; with ``--trace 1`` it runs the same calls once untraced and once
traced and reports the per-layer metrics.  Every result is checked against
the benchmark's own reference computation.  Human-readable lines and the
provenance come first; the last line of standard output is the JSON result.
Detailed results (and the spans of a traced run) are written to
``perfbench/out/``.  See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"
# set-ups per run: this process plus SETUP_REPEATS - 1 fresh interpreters
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_qls(root: Path = ROOT):
    src = root / "src"
    if not (src / "qls" / "__init__.py").is_file():
        raise SystemExit(f"error: no qls package under {src}")
    sys.path.insert(0, str(src))
    import qls

    if Path(qls.__file__).resolve().parent != (src / "qls").resolve():
        raise SystemExit(f"error: qls was imported from {qls.__file__}, not from {src}")
    return qls


def setup(workload: str, seed: int):
    """Import qls, generate the workload's inputs and make the warm-up call."""
    t0 = time.perf_counter()
    qls = import_qls()
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload](qls, seed % 2**64)   # numpy seeds are non-negative
    wl.warm_up()
    return time.perf_counter() - t0, qls, wl


def setup_in_child(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, calibration factor) of one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    raw, factor = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(factor)


def run_calls(wl, qls, cal, seconds=None, count=None):
    """Call until the calls have taken `seconds` in total, or `count` times,
    sampling the calibration kernel between calls.  Returns each call's start,
    wall time and result (or the QlsError raised)."""
    import calibrate

    starts, durations, outcomes = [], [], []
    spent = 0.0
    cal.sample(calibrate.BURST)
    while (spent < seconds) if count is None else (len(outcomes) < count):
        inputs = wl.prepare(len(outcomes))
        cal.tick()
        t0 = time.perf_counter()
        starts.append(t0)
        try:
            out = wl.call(inputs)
        except qls.QlsError as exc:
            out = exc
        dt = time.perf_counter() - t0
        durations.append(dt)
        outcomes.append(out)
        spent += dt
    cal.sample(calibrate.BURST)
    return starts, durations, outcomes


def account(wl, qls, outcomes):
    """(attempted, failed, checks_failed) over the calls' operations.  A call
    that raised QlsError or failed its check counts all its operations as
    failed; otherwise the failures the program reports count."""
    attempted = failed = checks_failed = 0
    for i, out in enumerate(outcomes):
        attempted += wl.ops_per_call
        if isinstance(out, qls.QlsError):
            failed += wl.ops_per_call
        elif not wl.check(i, out):
            checks_failed += 1
            failed += wl.ops_per_call
        else:
            failed += wl.program_failures(out)
    return attempted, failed, checks_failed


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def openblas_info() -> dict:
    """OpenBLAS version string and thread count, read from the library numpy loaded."""
    import ctypes
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            try:
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            return {"openblas": get_config().decode(), "blas_threads": get_threads()}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"openblas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_sha256() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qls").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(qls, wl, args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "run_seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_sha256(),
        "qls": qls.__version__, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, **openblas_info(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "load": "closed loop, 1 client, 1 process, 1 thread; run_mc workers=1",
        "work_unit": wl.unit, "inputs": wl.describe(),
    }


def end_to_end_metrics(wl, durations, setups, rss_mb, attempted, failed) -> dict:
    """`durations` are the call times and `setups` the set-up times, in seconds."""
    ms = [d * 1e3 for d in durations]
    return {
        "setup_s": statistics.median(setups),
        "work_per_s": len(durations) * wl.units_per_call / sum(durations),
        "call_ms_p50": statistics.median(ms),
        "call_ms_p90": percentile(ms, 90),
        "peak_rss_mb": rss_mb,
        "ok_fraction": 1.0 - failed / attempted,
    }


UNITS = {"setup_s": "s", "work_per_s": "1/s", "call_ms_p50": "ms", "call_ms_p90": "ms",
         "peak_rss_mb": "MiB", "ok_fraction": "fraction"}


def measure(wl, qls, seconds: float, trace: bool, setup_s: float, more_setups=list):
    """Run one workload; return (result dict, details for the report).

    `setup_s` is this process's set-up time; `more_setups` returns the
    (seconds, calibration factor) pairs of further set-ups."""
    import calibrate

    cal = calibrate.Calibration()
    raw = tracer = None
    if not trace:
        starts, durations, outcomes = run_calls(wl, qls, cal, seconds=seconds)
        rss = peak_rss_mb()
        attempted, failed, checks_failed = account(wl, qls, outcomes)
        # this process's set-up ended just before the phase's first samples
        pairs = [(setup_s, calibrate.REF_S / statistics.median(cal.samples[:calibrate.BURST]))]
        pairs += more_setups()
        values = end_to_end_metrics(wl, list(cal.scale(starts, durations)),
                                    [s * f for s, f in pairs], rss, attempted, failed)
        raw = end_to_end_metrics(wl, durations, [s for s, _ in pairs], rss, attempted, failed)
        units = UNITS
    else:
        import tracing

        starts, durations, outcomes = run_calls(wl, qls, cal, seconds=seconds / 2)
        cal_traced = calibrate.Calibration()
        with tracing.Tracer() as tracer:
            t_starts, traced, traced_out = run_calls(wl, qls, cal_traced, count=len(outcomes))
        attempted, failed, checks_failed = (
            a + b for a, b in zip(account(wl, qls, outcomes), account(wl, qls, traced_out)))
        values = tracer.layer_metrics(len(traced), cal_traced.scale(t_starts, traced).sum(),
                                      cal.scale(starts, durations).sum())
        units = tracing.metric_units()
    result = {
        "correct": checks_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {"calls": len(durations), "call_ms": [d * 1e3 for d in durations],
               "checks_failed": checks_failed, "failed_fraction": failed / attempted,
               "raw_metrics": raw, "calibration": {
                   "ref_s": calibrate.REF_S, "samples": len(cal.samples),
                   "median_s": statistics.median(cal.samples), "factor": cal.factor()},
               "tracer": tracer}
    return result, details


def report(wl, result, details, prov) -> None:
    print(f"workload {wl.name}  seed {prov['seed']}  trace {prov['trace']}  "
          f"calls {details['calls']}  unit {wl.unit}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    raw = details["raw_metrics"] or {}
    for name, m in result["metrics"].items():
        note = f"  (unscaled {raw[name]:.6g})" if name in raw and raw[name] != m["value"] else ""
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}{note}")
    cal = details["calibration"]
    print(f"  times scaled to the reference speed: calibration kernel median "
          f"{cal['median_s'] * 1e3:.4f} ms over {cal['samples']} samples, "
          f"reference {cal['ref_s'] * 1e3:g} ms (factor {cal['factor']:.4f})")
    print(f"  {'failed_fraction':<40} {details['failed_fraction']:>16.6g} "
          f"(failed {result['failed']} of {result['attempted']} operations, "
          f"{details['checks_failed']} calls failed their check)")
    if prov["trace"]:
        import tracing

        shares = {g: result["metrics"][f"share.{g}"]["value"] for g in (*tracing.GROUPS, "other")}
        top = max(shares, key=shares.get)
        verdict = "matches" if top == wl.predicted_dominant else "DOES NOT match"
        print(f"  dominant layer group {top} ({shares[top]:.3f}) {verdict} "
              f"the prediction {wl.predicted_dominant}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit (used for the repeated set-ups)")
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    setup_s, qls, wl = setup(args.workload, args.seed)
    if args.setup_only:
        import calibrate

        cal = calibrate.Calibration()
        cal.sample(2 * calibrate.BURST)
        print(repr(setup_s), repr(cal.factor()))
        return 0

    def more_setups():
        return [setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]

    result, details = measure(wl, qls, args.seconds, bool(args.trace), setup_s, more_setups)
    prov = provenance(qls, wl, args)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    tracer = details.pop("tracer")
    if tracer is not None:
        tracer.save(stem.with_suffix(".spans.npz"))
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result, **details}, fh, indent=1)
    report(wl, result, details, prov)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
