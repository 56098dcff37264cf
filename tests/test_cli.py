import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qls import cli
from qls.cli import Dataset, main, read_data, InputError
from qls.estimators import FitPlan
from qls.families import Params, get_family


@pytest.fixture()
def normal_file(tmp_path):
    data = get_family("normal").sample(Params(0.0, 1.0), 10_000,
                                       np.random.default_rng(2024))
    path = tmp_path / "normal.csv"
    path.write_text("\n".join(f"{v:.10f}" for v in data) + "\n")
    return str(path)


@pytest.fixture()
def counting_file(tmp_path):
    path = tmp_path / "count.csv"
    path.write_text("\n".join(str(i) for i in range(1, 1001)) + "\n")
    return str(path)


def _write(tmp_path, name, values):
    path = tmp_path / name
    path.write_text("\n".join(f"{v:.17g}" for v in values) + "\n")
    return str(path)


@pytest.fixture()
def subnormal_file(tmp_path):
    # N(0, 1) x 1e-310: every value subnormal, sigma^2 below the float range
    return _write(tmp_path, "tiny.csv", np.random.default_rng(1).standard_normal(200) * 1e-310)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# data ingestion
# ---------------------------------------------------------------------------

def test_read_data_plain_and_header_and_comments(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("value\n# a comment\n1.5\n\n2.5\n3.5,\n")
    ds = read_data(str(p))
    assert np.allclose(ds.values, [1.5, 2.5, 3.5])


def test_read_data_rejects_nan_with_lineno(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0\nnan\n")
    with pytest.raises(InputError, match=":2:"):
        read_data(str(p))
    p.write_text("1.0\n2.0\noops\n")
    with pytest.raises(InputError, match=":3:"):
        read_data(str(p))
    p.write_text("# only comments\n")
    with pytest.raises(InputError):
        read_data(str(p))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_smoke_counting_data(capsys, counting_file):
    code, out, _ = run_cli(capsys, "fit", "--family", "normal",
                           "--data", counting_file, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert 400 <= rep["mu"] <= 600
    assert rep["sigma"] > 0
    assert rep["breakdown_point"] == pytest.approx(0.05)
    assert "se_mu" in rep and "se_sigma" in rep


def test_fit_usage_error_k1(capsys, counting_file):
    code, _, err = run_cli(capsys, "fit", "--family", "normal",
                           "--data", counting_file, "--k", "1")
    assert code == 1
    assert "usage" in err or "error" in err


def test_fit_unknown_family_is_usage_error(capsys, counting_file):
    code, _, _ = run_cli(capsys, "fit", "--family", "weibull",
                         "--data", counting_file)
    assert code == 1


def test_fit_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "fit", "--family", "normal",
                           "--data", "/nonexistent/file.csv")
    assert code == 2


def test_fit_reports_the_skipped_header(capsys, tmp_path):
    p = tmp_path / "h.csv"
    values = get_family("normal").sample(Params(0.0, 1.0), 500, np.random.default_rng(3))
    p.write_text("value\n" + "\n".join(f"{v:.10f}" for v in values) + "\n")
    code, out, _ = run_cli(capsys, "fit", "--family", "normal", "--data", str(p),
                           "--format", "json")
    assert code == 0
    warnings = json.loads(out)["warnings"]
    assert len(warnings) == 1 and "header skipped" in warnings[0]


def test_fit_non_finite_values_past_the_reader_exit_3(capsys, monkeypatch):
    # the reader rejects NaN itself; data reaching the library anyway are
    # refused there, and the CLI reports a numeric failure
    data = np.linspace(-2.0, 2.0, 200)
    data[7] = np.nan
    monkeypatch.setattr(cli, "read_data", lambda path: Dataset(values=data, source=path))
    code, out, err = run_cli(capsys, "fit", "--family", "normal", "--data", "x.csv")
    assert code == 3 and out == ""
    assert "NonFiniteData" in err


@pytest.mark.parametrize("method", ["gqls", "oqls", "mle"])
def test_fit_extreme_magnitudes_exit_3_with_a_message(capsys, tmp_path, method):
    values = get_family("normal").sample(Params(0.0, 1.0), 500, np.random.default_rng(5))
    p = tmp_path / "big.csv"
    p.write_text("\n".join(f"{v * 1e300!r}" for v in values.tolist()) + "\n")
    code, out, err = run_cli(capsys, "fit", "--family", "normal", "--data", str(p),
                             "--method", method)
    assert code == 3 and out == ""
    assert "ScaleOverflow" in err and "rescale the data" in err
    assert "Traceback" not in err


def test_fit_reports_tied_quantiles(capsys, tmp_path):
    values = get_family("normal").sample(Params(0.0, 1.0), 1000, np.random.default_rng(3))
    p = tmp_path / "rounded.csv"
    p.write_text("\n".join(f"{v:.0f}" for v in values) + "\n")
    code, out, _ = run_cli(capsys, "fit", "--family", "normal", "--data", str(p),
                           "--format", "json")
    assert code == 0
    assert "tied_quantiles" in json.loads(out)["warnings"]


@pytest.mark.parametrize("family,method", [("cauchy", "gqls"), ("cauchy", "oqls"),
                                           ("cauchy", "mle"), ("normal", "gqls"),
                                           ("normal", "mle")])
def test_fit_tags_an_underflowed_scale(capsys, subnormal_file, family, method):
    # sigma > 0 but sigma^2 below the normal range: the standard errors read 0
    code, out, _ = run_cli(capsys, "fit", "--family", family, "--method", method,
                           "--data", subnormal_file, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert 0.0 < rep["sigma"] < 1e-300 and rep["se_mu"] == rep["se_sigma"] == 0.0
    assert rep["warnings"] == ["scale_underflow"]


@pytest.mark.parametrize("method", ["gqls", "oqls"])
def test_fit_tags_an_underflowed_supplied_scale(capsys, subnormal_file, method):
    # a location-only fit given sigma = 1e-170: sigma^2 underflows, so se_mu reads 0
    code, out, _ = run_cli(capsys, "fit", "--family", "normal", "--method", method,
                           "--mode", "location", "--known-sigma", "1e-170",
                           "--data", subnormal_file, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["sigma"] == 1e-170 and rep["se_mu"] == 0.0
    assert rep["warnings"] == ["scale_underflow"]


def test_fit_mu_within_reported_se(capsys, normal_file):
    code, out, _ = run_cli(capsys, "fit", "--family", "normal",
                           "--data", normal_file, "--format", "json")
    rep = json.loads(out)
    assert abs(rep["mu"]) < 3.0 * rep["se_mu"]


def test_fit_mle_and_modes(capsys, normal_file):
    code, out, _ = run_cli(capsys, "fit", "--family", "normal",
                           "--data", normal_file, "--method", "mle",
                           "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["mu"]) < 0.05
    code, out, _ = run_cli(capsys, "fit", "--family", "normal",
                           "--data", normal_file, "--mode", "scale",
                           "--known-mu", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["mu"] == 0.0


# ---------------------------------------------------------------------------
# gof
# ---------------------------------------------------------------------------

def test_gof_single_family(capsys, normal_file):
    code, out, _ = run_cli(capsys, "gof", "--family", "normal",
                           "--data", normal_file, "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["test"] == "w"
    assert row["dof"] == 23
    assert row["p_value"] > 0.01
    assert row["reject"] is False


def test_gof_all_families_table(capsys, normal_file):
    code, out, _ = run_cli(capsys, "gof", "--family", "all",
                           "--data", normal_file, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["family"] for r in rows] == [
        "cauchy", "gumbel", "laplace", "logistic", "normal"]
    normal_p = float(next(r for r in rows if r["family"] == "normal")["p_value"])
    cauchy_p = float(next(r for r in rows if r["family"] == "cauchy")["p_value"])
    assert normal_p > cauchy_p


def test_gof_rejects_wrong_model(capsys, tmp_path):
    data = get_family("gumbel").sample(Params(0.0, 1.0), 1000,
                                       np.random.default_rng(55))
    p = tmp_path / "g.csv"
    p.write_text("\n".join(map(str, data)))
    code, out, _ = run_cli(capsys, "gof", "--family", "normal",
                           "--data", str(p), "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["p_value"] < 0.05


def test_gof_reports_the_skipped_header_on_stderr(capsys, tmp_path, normal_file):
    with_header = tmp_path / "h.csv"
    with open(normal_file) as fh:
        with_header.write_text("value\n" + fh.read())
    args = ("gof", "--family", "all", "--format", "csv")
    code, plain, err = run_cli(capsys, *args, "--data", normal_file)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *args, "--data", str(with_header))
    assert code == 0 and out == plain
    assert err.startswith("warning: ") and "header skipped" in err


def test_gof_wout_seeded(capsys, normal_file):
    args = ("gof", "--family", "normal", "--data", normal_file,
            "--test", "wout", "--B", "40", "--seed", "9", "--format", "json")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    row = json.loads(out1)[0]
    assert row["B"] == 40
    assert "p_display" in row


def test_gof_on_subnormal_data_decides_on_finite_statistics(capsys, subnormal_file):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        code, out, err = run_cli(capsys, "gof", "--family", "all", "--data",
                                 subnormal_file, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        for row in rows:
            assert np.isfinite(row["statistic"]) and 0.0 <= row["p_value"] <= 1.0
            assert row["reject"] == (row["p_value"] <= 0.05)
        assert err.splitlines() == [f"warning: {row['family']}: scale_underflow"
                                    for row in rows]
        code, out, err = run_cli(capsys, "gof", "--family", "normal", "--data",
                                 subnormal_file, "--test", "wout", "--B", "50",
                                 "--format", "json")
        assert code == 0 and err == "warning: normal: scale_underflow\n"
        row = json.loads(out)[0]
        assert np.isfinite(row["statistic"]) and row["B"] <= 50
        assert row["reject"] == (row["p_value"] <= 0.05)


@pytest.mark.parametrize("test", ["w", "wout"])
def test_gof_non_finite_statistic_exits_3(capsys, monkeypatch, normal_file, test):
    monkeypatch.setattr(FitPlan, "w_statistics",
                        lambda self, y, beta, n: np.full(len(y), np.inf))
    code, out, err = run_cli(capsys, "gof", "--family", "normal", "--data", normal_file,
                             "--test", test, "--B", "20")
    assert code == 3 and out == "" and "ScaleOverflow" in err


def test_gof_prints_the_fits_tags(capsys, tmp_path):
    few = _write(tmp_path, "few.csv", [0.3, -1.2, 0.8, 2.1, -0.4])
    code, out, err = run_cli(capsys, "gof", "--family", "normal", "--data", few,
                             "--format", "json")
    assert code == 0
    assert err.splitlines() == ["warning: normal: rank_clamped_to_first_order_statistic",
                                "warning: normal: degenerate_grid"]
    assert list(json.loads(out)[0]) == ["family", "mu", "sigma", "test", "statistic",
                                        "dof", "p_value", "reject"]
    tied = _write(tmp_path, "tied.csv", np.repeat([1.0, 2.0], [600, 400]))
    code, _, err = run_cli(capsys, "gof", "--family", "normal", "--data", tied)
    assert code == 0 and err.splitlines() == ["warning: normal: tied_quantiles"]


def test_gof_wout_prints_the_out_levels_tags(capsys, tmp_path):
    # at n = 60 the estimation levels (from 0.05) have every rank, while the
    # default out-levels (from 0.01) clamp their first one
    sixty = _write(tmp_path, "sixty.csv", get_family("normal").sample(
        Params(0.0, 1.0), 60, np.random.default_rng(3)))
    code, _, err = run_cli(capsys, "gof", "--family", "normal", "--data", sixty)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, "gof", "--family", "normal", "--data", sixty,
                             "--test", "wout", "--B", "50", "--format", "json")
    assert code == 0
    assert err.splitlines() == ["warning: normal: rank_clamped_to_first_order_statistic"]
    assert list(json.loads(out)[0]) == ["family", "mu", "sigma", "test", "statistic", "B",
                                        "p_value", "p_display", "reject"]


# ---------------------------------------------------------------------------
# are / influence
# ---------------------------------------------------------------------------

def test_are_csv_reference_cell(capsys):
    code, out, _ = run_cli(capsys, "are", "--kind", "gqls",
                           "--families", "normal", "--grids", "0.05:0.95",
                           "--k", "25", "--modes", "loc-scale")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["family"] == "normal"
    assert float(rows[0]["are"]) == pytest.approx(0.911, abs=0.003)
    assert list(rows[0].keys()) == ["family", "kind", "mode", "a", "b", "k", "are"]


def test_are_unavailable_cells_marked(capsys):
    code, out, _ = run_cli(capsys, "are", "--families", "levy",
                           "--grids", "0.05:0.95", "--k", "15",
                           "--modes", "loc-scale,scale")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    vals = {r["mode"]: r["are"] for r in rows}
    assert vals["loc-scale"] == "NA"
    assert vals["scale"] != "NA"


def test_are_k_ranges(capsys):
    code, out, _ = run_cli(capsys, "are", "--families", "normal",
                           "--grids", "0.05:0.95", "--k", "2:5,25")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["k"]) for r in rows] == [2, 3, 4, 5, 25]


def test_influence_csv_structure(capsys):
    code, out, _ = run_cli(capsys, "influence", "--family", "normal",
                           "--kind", "oqls", "--points", "101",
                           "--range=-5:5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0].keys()) == ["x", "if_mu", "if_sigma"]
    mu_vals = np.array([float(r["if_mu"]) for r in rows])
    # stepwise: limited number of distinct plateaus
    assert np.unique(np.round(mu_vals, 10)).size <= 26


# ---------------------------------------------------------------------------
# simulate / bench
# ---------------------------------------------------------------------------

def test_simulate_mc_config(capsys, tmp_path):
    cfg = {
        "study": "mc", "family": "normal", "mu": 0.0, "sigma": 1.0,
        "n": 200, "M": 40, "seed": 3,
        "estimators": [
            {"method": "gqls", "a": 0.05, "b": 0.95, "k": 25},
            {"method": "mle"},
        ],
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    code, out1, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    _, out2, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert out1 == out2  # byte-identical for a fixed seed
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert {r["estimator"] for r in rows} == {"gqls(0.05,0.95,k=25)", "mle"}
    assert all(r["failures"] == "0" for r in rows)


def test_simulate_power_config(capsys, tmp_path):
    cfg = {
        "study": "power", "family": "normal", "n": 300, "M": 20, "seed": 4,
        "h0_families": ["normal"], "grids": [{"a": 0.05, "b": 0.95, "k": 25}],
        "test": "w",
    }
    path = tmp_path / "power.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["h0_family"] == "normal"
    assert 0.0 <= float(rows[0]["rejection_rate"]) <= 0.25


def _one_error_line(err):
    lines = [line for line in err.splitlines() if "error:" in line]
    return len(lines) == 1 and "Traceback" not in err and "seed" in lines[0]


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_bad_seeds_are_usage_errors(capsys, tmp_path, normal_file, seed):
    path = tmp_path / "study.json"
    path.write_text(json.dumps({"study": "mc", "family": "normal", "n": 50, "M": 4,
                                "estimators": [{"method": "gqls"}]}))
    for argv in (("simulate", "--config", str(path)),
                 ("gof", "--family", "normal", "--data", normal_file, "--test", "wout"),
                 ("bench", "--families", "normal", "--sizes", "100")):
        code, out, err = run_cli(capsys, *argv, "--seed", seed)
        assert code == 1 and out == "" and _one_error_line(err), (argv, err)


@pytest.mark.parametrize("seed", [-1, 2.5, "3"])
def test_bad_config_seeds_are_usage_errors(capsys, tmp_path, seed):
    for study in ({"study": "mc", "estimators": [{"method": "mle"}]},
                  {"study": "power", "h0_families": ["normal"], "test": "wout"}):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({**study, "family": "normal", "n": 50, "M": 4,
                                    "seed": seed}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1 and out == "" and _one_error_line(err), err


def test_simulate_prints_grid_tags_as_warnings(capsys, tmp_path):
    cfg = {"study": "mc", "family": "normal", "n": 2, "M": 5, "seed": 1,
           "estimators": [{"method": "gqls", "k": 25}, {"method": "mle"}]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    assert err.splitlines() == [
        "warning: gqls(0.05,0.95,k=25): rank_clamped_to_first_order_statistic",
        "warning: gqls(0.05,0.95,k=25): degenerate_grid",
    ]
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["failures"] == "0" for r in rows)


def test_simulate_prints_power_grid_tags_as_warnings(capsys, tmp_path):
    cfg = {"study": "power", "family": "normal", "n": 2, "M": 5, "seed": 1,
           "h0_families": ["normal"], "grids": [{"k": 25}, {"a": 0.5, "b": 0.9, "k": 2}]}
    path = tmp_path / "tiny_power.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    assert err.splitlines() == [
        "warning: normal/(0.05,0.95,k=25): rank_clamped_to_first_order_statistic",
        "warning: normal/(0.05,0.95,k=25): degenerate_grid",
    ]
    assert out.splitlines()[0] == ("h0_family,generator,a,b,k,n,m,test,alpha,"
                                   "rejection_rate,failures")


def test_simulate_bad_config(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCRIPT_ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def test_simulate_threads_env_default(capsys, tmp_path, monkeypatch):
    # QLS_THREADS is not read and --threads is a usage error
    cfg = {"study": "mc", "family": "normal", "n": 100, "M": 16, "seed": 8,
           "estimators": [{"method": "gqls"}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.delenv("QLS_THREADS", raising=False)
    code, plain, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0 and err == ""
    monkeypatch.setenv("QLS_THREADS", "3")
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0 and err == "" and out == plain
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--threads", "2")
    assert code == 1 and out == ""
    assert err.startswith("usage: ") and "unrecognized arguments: --threads 2" in err


def test_contamination_study_threads_only_warns(tmp_path):
    # --threads, once accepted with a warning, is now a usage error
    proc = subprocess.run([sys.executable, str(SCRIPTS / "contamination_study.py"),
                           "--threads", "3", "--out", str(tmp_path / "study.csv")],
                          capture_output=True, env=SCRIPT_ENV, timeout=300)
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.startswith(b"usage: ") and b"unrecognized arguments" in proc.stderr
    assert not (tmp_path / "study.csv").exists()


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_every_script_prints_its_help(script):
    # a script that imports a name the package no longer has fails here
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          capture_output=True, env=SCRIPT_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.startswith(b"usage: ")


def test_bench_csv(capsys):
    code, out, _ = run_cli(capsys, "bench", "--families", "normal",
                           "--methods", "gqls", "--sizes", "5000,10000",
                           "--repeats", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert float(rows[0]["fit_seconds"]) >= 0.0


def test_bench_rejects_descending_sizes(capsys):
    code, _, _ = run_cli(capsys, "bench", "--sizes", "10000,5000")
    assert code == 1


def test_output_file_writing(capsys, tmp_path, counting_file):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "fit", "--family", "normal",
                           "--data", counting_file, "--format", "json",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["sigma"] > 0
