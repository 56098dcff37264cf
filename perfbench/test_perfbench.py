"""Tests of the benchmark itself, on reduced workload sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

qls = run.import_qls()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    "mc_contam": lambda seed: workloads.McContam(qls, seed, n=200, m=40),
    "fit_bigdata": lambda seed: workloads.FitBigdata(qls, seed, n=20_000),
    "gof_bootstrap": lambda seed: workloads.GofBootstrap(qls, seed, n=2_000, b=50),
    "are_sweep": lambda seed: workloads.AreSweep(qls, seed, k_max=12),
}


def small_run(name, seed, trace=False, after_warm_up=None):
    wl = SMALL[name](seed)
    wl.warm_up()
    if after_warm_up is not None:
        after_warm_up()
    return run.measure(wl, qls, 0.2, trace, setup_s=0.5)[0]


def spec_units(key):
    return {m["name"]: m["unit"] for m in SPEC[key]}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert spec_units("end_to_end") == run.UNITS
    assert spec_units("per_layer") == tracing.metric_units()


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(SMALL))
def test_every_metric_is_reported_with_its_unit(name, trace):
    res = small_run(name, 1, trace)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == spec_units("per_layer" if trace else "end_to_end")
    values = [v["value"] for v in res["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def _perturb(name, monkeypatch):
    """Patch the public qls function a workload times so that its output is
    slightly wrong."""
    if name == "mc_contam":
        orig = qls.run_mc

        def wrong(config):
            s = orig(config)
            label = config.estimators[0].label
            ps = s.stats[label]["mu"]
            stats = {**s.stats, label: {**s.stats[label],
                                        "mu": dataclasses.replace(ps, mean=ps.mean + 0.5)}}
            return dataclasses.replace(s, stats=stats)

        monkeypatch.setattr(qls, "run_mc", wrong)
    elif name == "fit_bigdata":
        orig = qls.fit_sample

        def wrong(*args, **kwargs):
            fit = orig(*args, **kwargs)
            return dataclasses.replace(fit, params=qls.Params(fit.mu + 1e-5 * fit.sigma, fit.sigma))

        monkeypatch.setattr(qls, "fit_sample", wrong)
    elif name == "gof_bootstrap":
        orig = qls.bootstrap_pvalue

        def wrong(*args, **kwargs):
            res = orig(*args, **kwargs)
            return dataclasses.replace(res, statistic=res.statistic * (1 + 1e-5))

        monkeypatch.setattr(qls, "bootstrap_pvalue", wrong)
    else:
        orig = qls.are

        def wrong(*args, **kwargs):
            res = orig(*args, **kwargs)
            return dataclasses.replace(res, are=res.are * (1 + 1e-5))

        monkeypatch.setattr(qls, "are", wrong)


@pytest.mark.parametrize("name", list(SMALL))
def test_perturbed_output_is_caught_and_counted_failed(name, monkeypatch):
    res = small_run(name, 2, after_warm_up=lambda: _perturb(name, monkeypatch))
    assert res["correct"] is False
    assert res["failed"] == res["attempted"]
    assert res["metrics"]["ok_fraction"]["value"] == 0.0


def test_qls_error_counts_as_failed_not_incorrect(monkeypatch):
    def raises(*args, **kwargs):
        raise qls.RankDeficient("injected")

    res = small_run("are_sweep", 3,
                    after_warm_up=lambda: monkeypatch.setattr(qls, "are", raises))
    assert res["correct"] is True
    assert res["failed"] == res["attempted"]


@pytest.mark.parametrize("name", list(SMALL))
def test_seed_changes_inputs_not_metric_names(name):
    assert SMALL[name](4).describe() == SMALL[name](4).describe()
    assert SMALL[name](4).describe() != SMALL[name](5).describe()
    assert small_run(name, 4)["metrics"].keys() == small_run(name, 5)["metrics"].keys()


def test_tracer_restores_the_package_and_computes_self_time():
    before = (qls.fit_sample, qls.estimators.fit_gqls, qls.Family.sample)
    grid = qls.make_grid(0.05, 0.95, 9)
    with tracing.Tracer() as tracer:
        assert qls.fit_sample is not before[0]
        qls.fit_sample(SMALL["fit_bigdata"](6).data["normal"], qls.get_family("normal"), grid)
    assert (qls.fit_sample, qls.estimators.fit_gqls, qls.Family.sample) == before
    labels = [tracing.LABELS[i] for i in tracer.name_id]
    assert labels[0] == "estimators.fit_sample" and "estimators.fit_gqls" in labels
    assert tracer.parent[0] == -1 and all(p >= 0 for p in tracer.parent[1:])
    self_t = tracer.self_times()
    assert (self_t >= 0).all()
    assert math.isclose(self_t.sum(), tracer.end[0] - tracer.start[0], rel_tol=1e-9)


def test_command_prints_the_result_last():
    cmd = [*SPEC["command"], "--workload", "gof_bootstrap", "--seed", "3",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [*SPEC["command"], "--workload", "are_sweep", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
