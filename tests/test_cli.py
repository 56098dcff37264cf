import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from qls import cli
from qls import families as families_mod
from qls import gof as gof_mod
from qls import quantiles as quantiles_mod
from qls.cli import Dataset, main, read_data, InputError
from qls.errors import DegenerateDensity
from qls.estimators import FitPlan
from qls.families import Params, get_family
from qls.quantiles import make_grid


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


def _single_family_runs(capsys, args):
    """The exit codes, csv rows and stderr lines of ``args`` run for each
    family of ``--family all`` in turn, each run stopping at its error."""
    codes, rows, err = [], [], []
    for name in cli.ALL_GOF_FAMILIES:
        code, out, e = run_cli(capsys, "gof", "--family", name, *args)
        codes.append(code)
        rows += out.splitlines()[1:]
        err += e.splitlines()
    return codes, rows, err


@pytest.mark.parametrize("test", ["w", "wout"])
def test_gof_all_equals_the_single_family_runs(capsys, tmp_path, test):
    # at n = 80 the out-levels clamp their first rank, so every family warns
    data = _write(tmp_path, "eighty.csv", get_family("logistic").sample(
        Params(1.0, 2.0), 80, np.random.default_rng(31)))
    args = ("--data", data, "--test", test, "--B", "400", "--seed", "5", "--format", "csv")
    code, out, err = run_cli(capsys, "gof", "--family", "all", *args)
    codes, rows, single_err = _single_family_runs(capsys, args)
    assert code == 0 and codes == [0] * 5
    assert out.splitlines()[1:] == rows and err.splitlines() == single_err
    assert len(single_err) == (5 if test == "wout" else 0)


def test_gof_all_reports_a_familys_error_in_its_turn(capsys, monkeypatch, tmp_path):
    # the bootstrap of every family runs at once, yet the families before
    # the failing one print their warnings first, as single runs would, and
    # the first failing family ends the run
    data = _write(tmp_path, "eighty.csv", get_family("logistic").sample(
        Params(1.0, 2.0), 80, np.random.default_rng(31)))
    for_family = FitPlan.for_family.__func__

    def failing(cls, fam, grid, kind):
        if fam.name in ("laplace", "normal") and grid.k == 50:  # the default out-levels
            raise DegenerateDensity(f"{fam.name}: no density")
        return for_family(cls, fam, grid, kind)

    monkeypatch.setattr(FitPlan, "for_family", classmethod(failing))
    args = ("--data", data, "--test", "wout", "--B", "100", "--format", "csv")
    code, out, err = run_cli(capsys, "gof", "--family", "all", *args)
    codes, _, single_err = _single_family_runs(capsys, args)
    assert codes == [0, 0, 3, 0, 3]
    assert code == 3 and out == ""
    assert err.splitlines() == single_err[:3] and "laplace: no density" in err


def test_gof_all_bad_out_levels_are_one_usage_error_before_any_family(capsys, tmp_path):
    # the out-levels join the estimation levels in the one sort, so they are
    # checked before any family is fitted: no family's tags come first
    few = _write(tmp_path, "few.csv", [0.3, -1.2, 0.8, 2.1, -0.4])
    args = ("--data", few, "--test", "wout", "--out-levels", "0.5,0.2")
    code, out, err = run_cli(capsys, "gof", "--family", "all", *args)
    single = run_cli(capsys, "gof", "--family", "cauchy", *args)
    assert code == single[0] == 1 and out == single[1] == "" and err == single[2]
    assert err.splitlines() == ["qls: usage error: levels must be strictly increasing"]


@pytest.mark.parametrize("test", ["w", "wout"])
def test_gof_sorts_once_and_solves_each_family_once(capsys, monkeypatch, tmp_path, test):
    # one sort serves the fit and the bootstrap; each family's fit is one
    # single-row solve (the bootstrap null's refits are blocks of rows)
    data = _write(tmp_path, "n.csv", get_family("normal").sample(
        Params(), 2000, np.random.default_rng(4)))
    sorts, solves = [], []
    order_statistics, solve = quantiles_mod._order_statistics, FitPlan.solve

    def sort_spy(data, positions):
        sorts.append(data.shape[0])
        return order_statistics(data, positions)

    def solve_spy(self, y, *args, **kwargs):
        if y.shape[0] == 1:
            solves.append(self)
        return solve(self, y, *args, **kwargs)

    monkeypatch.setattr(quantiles_mod, "_order_statistics", sort_spy)
    monkeypatch.setattr(FitPlan, "solve", solve_spy)
    code, out, _ = run_cli(capsys, "gof", "--family", "all", "--data", data, "--test", test,
                           "--B", "300", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 6
    assert sorts == [2000]
    assert len(solves) == len(set(map(id, solves))) == 5


def test_gof_w_draws_nothing_and_starts_no_thread(capsys, monkeypatch, tmp_path):
    data = _write(tmp_path, "n.csv", get_family("normal").sample(
        Params(), 2000, np.random.default_rng(4)))
    want = run_cli(capsys, "gof", "--family", "all", "--data", data)
    started = []
    start = threading.Thread.start

    def no_draw(*args, **kwargs):
        raise AssertionError("the w test drew bootstrap spacings")

    def start_spy(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(gof_mod, "_spacings", no_draw)
    monkeypatch.setattr(threading.Thread, "start", start_spy)
    assert run_cli(capsys, "gof", "--family", "all", "--data", data) == want
    assert want[0] == 0 and started == []


@pytest.mark.parametrize("test", ["w", "wout"])
def test_gof_answers_on_data_whose_squared_scale_leaves_the_float_range(capsys, tmp_path, test):
    # the gof fit forms no sigma^2: at 2^600 it would overflow and at 2^-600
    # underflow, yet W and W_out divide each residual by sigma, so the
    # statistics and p-values are the bits of the unscaled data, and the fit
    # scales exactly
    values = get_family("logistic").sample(Params(1.0, 2.0), 300, np.random.default_rng(12))
    args = ("gof", "--family", "all", "--test", test, "--B", "200", "--format", "json")
    code, out, _ = run_cli(capsys, *args, "--data", _write(tmp_path, "x.csv", values))
    assert code == 0
    want = json.loads(out)
    for power in (600, -600):
        scaled = _write(tmp_path, f"x{power}.csv", np.ldexp(values, power))
        code, out, _ = run_cli(capsys, *args, "--data", scaled)
        assert code == 0
        rows = json.loads(out)
        assert [row["family"] for row in rows] == list(cli.ALL_GOF_FAMILIES)
        for row, ref in zip(rows, want):
            assert row["mu"] == np.ldexp(ref["mu"], power)
            assert row["sigma"] == np.ldexp(ref["sigma"], power)
            assert (row["statistic"], row["p_value"]) == (ref["statistic"], ref["p_value"])
        if power > 0:  # qls fit forms the covariance, whose sigma^2 overflows
            code, _, err = run_cli(capsys, "fit", "--family", "logistic", "--data", scaled)
            assert code == 3 and "ScaleOverflow" in err


def test_gof_a_failed_out_level_plan_comes_after_the_fits_tags(capsys, monkeypatch, tmp_path):
    few = _write(tmp_path, "few.csv", [0.3, -1.2, 0.8, 2.1, -0.4])
    for_family = FitPlan.for_family.__func__

    def failing(cls, fam, grid, kind):
        if grid.k == 50:  # the default out-levels
            raise DegenerateDensity(f"{fam.name}: no density")
        return for_family(cls, fam, grid, kind)

    monkeypatch.setattr(FitPlan, "for_family", classmethod(failing))
    code, out, err = run_cli(capsys, "gof", "--family", "all", "--data", few, "--test", "wout",
                             "--B", "50")
    assert code == 3 and out == ""
    assert err.splitlines() == ["warning: cauchy: rank_clamped_to_first_order_statistic",
                                "warning: cauchy: degenerate_grid",
                                "qls: DegenerateDensity: cauchy: no density"]


def test_gof_all_draws_one_spacing_sequence(capsys, monkeypatch, tmp_path):
    # five families, one generator and one standard_gamma call per block:
    # the six blocks of B = 1000 on 75 columns, all drawn once
    data = _write(tmp_path, "n.csv", get_family("normal").sample(
        Params(), 2000, np.random.default_rng(4)))
    made = []
    default_rng = np.random.default_rng

    class Spy:
        def __init__(self, key):
            self.rng, self.key, self.blocks = default_rng(key), key, []

        def standard_gamma(self, shape, size):
            self.blocks.append(size)
            return self.rng.standard_gamma(shape, size)

    def spy_rng(key):
        made.append(Spy(key))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy_rng)
    code, _, _ = run_cli(capsys, "gof", "--family", "all", "--data", data,
                         "--test", "wout", "--B", "1000", "--seed", "8")
    assert code == 0
    assert [spy.key for spy in made] == [[8, gof_mod._BOOTSTRAP_KEY]]
    rows = [size[0] for size in made[0].blocks]
    assert sum(rows) == 1000 and len(rows) == -(-1000 // (2 ** 17 // 750))


def test_families_write_only_their_clip_into_the_shared_uniforms(monkeypatch, tmp_path):
    # each family is handed the block the one before it left, and leaves it
    # as np.clip to [_U_FLOOR, _U_CEIL] would: the clip is idempotent, so
    # every family maps the bits it would map alone
    data = get_family("normal").sample(Params(), 2000, np.random.default_rng(6))
    fams = [get_family(name) for name in cli.ALL_GOF_FAMILIES]
    seen = []
    from_uniform = families_mod.Family._from_uniform

    def spy(self, params, u):
        before = u.copy()
        if seen and seen[-1][0] is u.base:
            assert np.array_equal(before, seen[-1][1]), self.name
        x = from_uniform(self, params, u)
        assert np.array_equal(u, np.clip(before, families_mod._U_FLOOR, families_mod._U_CEIL))
        assert not np.shares_memory(x, u)
        seen.append((u.base, u.copy(), self.name))
        return x

    monkeypatch.setattr(families_mod.Family, "_from_uniform", spy)
    list(gof_mod._gof(data, fams, make_grid(0.05, 0.95, 25), "wout", B=500, seed=2))
    names = [name for _, _, name in seen]
    assert names == list(cli.ALL_GOF_FAMILIES) * (len(names) // 5) and len(names) > 5


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


def test_mle_with_a_known_sigma_is_a_usage_error_on_both_paths(capsys, tmp_path,
                                                               counting_file):
    # the MLE takes no known scale: `qls fit --known-sigma` and a `qls
    # simulate` config estimator's "known_sigma" are the same mistake, one
    # usage-error line and exit 1 before any work
    cfg = {"study": "mc", "family": "normal", "n": 50, "M": 4,
           "estimators": [{"method": "gqls", "known_sigma": 2}, {"method": "mle",
                                                                  "known_sigma": 2}]}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    for argv in (("simulate", "--config", str(path)),
                 ("fit", "--family", "normal", "--data", counting_file, "--method", "mle",
                  "--known-sigma", "2")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, len(err.splitlines())) == (1, "", 1), err
        assert err.startswith("qls: usage error: ") and "QLS methods only" in err


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


_MC_CONFIG = {"study": "mc", "family": "normal", "n": 50, "M": 4,
              "estimators": [{"method": "gqls"}]}
_POWER_CONFIG = {"study": "power", "family": "normal", "n": 50, "M": 4,
                 "h0_families": ["normal"], "test": "wout", "B": 20}


@pytest.mark.parametrize("argv, config, code", [
    (("gof", "--B", "0"), None, 1),
    (("gof", "--B", "-5"), None, 1),
    (("gof", "--out-levels", "abc"), None, 1),
    (("influence", "--family", "normal", "--range", "5"), None, 1),
    (("influence", "--family", "normal", "--points", "-3"), None, 1),
    (("are", "--k", "x"), None, 1),
    (("are", "--grids", "0.1"), None, 1),
    (("influence", "--family", "normal", "--range", "5:1"), None, 1),
    (("bench", "--sizes", "abc"), None, 1),
    (("bench", "--sizes", "100", "--repeats", "0"), None, 1),
    (("bench", "--sizes", "100", "--methods", "foo"), None, 1),
    ((), {**_MC_CONFIG, "M": -1}, 1),
    ((), {**_MC_CONFIG, "M": 0}, 1),
    ((), {**_MC_CONFIG, "n": 0}, 1),
    ((), {**_MC_CONFIG, "contaminant": {"family": "cauchy", "epsilon": 2}}, 1),
    ((), {**_MC_CONFIG, "estimators": [{"method": "foo"}]}, 1),
    ((), {**_POWER_CONFIG, "test": "x"}, 1),
    ((), {**_POWER_CONFIG, "B": 0}, 1),
    ((), {**_POWER_CONFIG, "M": 0}, 1),
    ((), {k: v for k, v in _MC_CONFIG.items() if k != "estimators"}, 2),
    ((), {**_MC_CONFIG, "estimators": [{"method": "gqls", "known_mu": float("inf")}]}, 1),
    ((), {**_MC_CONFIG, "contaminant": {"family": "cauchy", "sigma": -1, "epsilon": 0.01}}, 1),
])
def test_bad_arguments_exit_with_one_error_line(capsys, tmp_path, normal_file, argv, config,
                                                 code):
    if config is not None:
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config))
        argv = ("simulate", "--config", str(path))
    elif argv[0] == "gof":
        argv = (*argv, "--family", "normal", "--data", normal_file, "--test", "wout")
    got, out, err = run_cli(capsys, *argv)
    lines = [line for line in err.splitlines() if "error:" in line]
    assert (got, out, len(lines)) == (code, "", 1), err
    assert "Traceback" not in err
    if code == 2:
        assert lines[0].startswith("qls: input error: ") and "'estimators'" in lines[0]


@pytest.mark.parametrize("config", [
    [_MC_CONFIG],
    None,
    "mc",
    {**_MC_CONFIG, "n": "abc"},
    {**_MC_CONFIG, "n": 50.5},
    {**_MC_CONFIG, "M": True},
    {**_MC_CONFIG, "family": 3},
    {**_MC_CONFIG, "mu": "0"},
    {**_MC_CONFIG, "sigma": 10 ** 400},
    {**_MC_CONFIG, "estimators": {"method": "gqls"}},
    {**_MC_CONFIG, "estimators": ["gqls"]},
    {**_MC_CONFIG, "estimators": [{"method": "gqls", "k": "25"}]},
    {**_MC_CONFIG, "estimators": [{"method": "gqls", "mode": 1}]},
    {**_MC_CONFIG, "contaminant": "cauchy"},
    {**_MC_CONFIG, "contaminant": {"family": "cauchy", "epsilon": "0.1"}},
    {**_POWER_CONFIG, "h0_families": "normal"},
    {**_POWER_CONFIG, "h0_families": [["normal"]]},
    {**_POWER_CONFIG, "grids": [25]},
    {**_POWER_CONFIG, "B": "20"},
    {**_POWER_CONFIG, "alpha": None},
])
def test_config_values_of_the_wrong_type_are_input_errors(capsys, tmp_path, config):
    # exit 2 with one input-error line, before any draw, instead of a
    # ValueError or AttributeError traceback
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    lines = [line for line in err.splitlines() if "error:" in line]
    assert (code, out, len(lines)) == (2, "", 1), err
    assert lines[0].startswith("qls: input error: study config")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_every_script_usage_error_exits_1(script, tmp_path):
    # exit 1 as in qls, whose exit 2 means unreadable input; nothing is written
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "--bogus"],
                          capture_output=True, env=SCRIPT_ENV, timeout=120, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr.decode()
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"usage: ") and b"unrecognized arguments: --bogus" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("script, argv, match", [
    ("power_study.py", ("--m", "0"), b"replicate count must be >= 1"),
    ("power_study.py", ("--test", "wout", "--B", "0"), b"bootstrap replicate"),
    ("contamination_study.py", ("--m", "0"), b"replicate count must be >= 1"),
    ("contamination_study.py", ("--family", "nope"), b"unknown family"),
    ("timing_bench.py", ("--repeats", "0"), b"at least one repeat"),
    ("timing_bench.py", ("--seed", "-1"), b"non-negative integer"),
    ("timing_bench.py", ("--sizes", "abc"), b"expected sizes"),
])
def test_script_library_errors_exit_1_with_one_error_line(script, argv, match, tmp_path):
    # the library's argument errors end a script as a usage error ends it:
    # one error line, exit 1, no traceback and nothing written
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *argv],
                          capture_output=True, env=SCRIPT_ENV, timeout=120, cwd=tmp_path)
    lines = [line for line in proc.stderr.splitlines() if b"error:" in line]
    assert (proc.returncode, proc.stdout, len(lines)) == (1, b"", 1), proc.stderr.decode()
    assert lines[0].startswith(script.encode() + b": error: ") and match in lines[0]
    assert b"Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("script, argv", [
    ("are_tables.py", ("--outdir", "{file}")),
    ("influence_curves.py", ("--outdir", "{file}")),
    ("contamination_study.py", ("--out", "{file}/x.csv", "--n", "20", "--m", "2")),
    ("power_study.py", ("--out", "{file}/x.csv", "--n", "20", "--m", "2")),
    ("timing_bench.py", ("--out", "{file}/x.csv", "--sizes", "100", "--families", "normal",
                         "--methods", "gqls", "--repeats", "1")),
    ("timing_bench.py", ("--out", "{dir}", "--sizes", "100", "--families", "normal",
                         "--methods", "gqls", "--repeats", "1")),
])
def test_script_unwritable_output_exits_2_with_one_error_line(script, argv, tmp_path):
    # an output path under a file, or a directory where the file goes: one
    # error line and exit 2, as qls gives for its --out, and nothing written
    taken = tmp_path / "taken"
    taken.write_text("kept")
    argv = [a.format(file=taken, dir=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *argv],
                          capture_output=True, env=SCRIPT_ENV, timeout=120, cwd=tmp_path)
    lines = [line for line in proc.stderr.splitlines() if b"error:" in line]
    assert (proc.returncode, proc.stdout, len(lines)) == (2, b"", 1), proc.stderr.decode()
    assert lines[0].startswith(script.encode() + b": error: cannot write ")
    assert b"Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept"


@pytest.mark.parametrize("script, study, argv", [
    ("power_study.py", "run_power_study", ("--out", "{file}/x.csv")),
    ("power_study.py", "run_power_study", ("--out", "{dir}")),
    ("timing_bench.py", "run_timing", ("--out", "{file}/x.csv")),
    ("timing_bench.py", "run_timing", ("--out", "{dir}")),
    ("contract_digest.py", "digests", ("{file}/x.json",)),
    ("contract_digest.py", "digests", ("{dir}",)),
])
def test_script_checks_its_output_before_the_study(script, study, argv, tmp_path,
                                                    monkeypatch, capsys):
    # an unwritable --out ends the script before the study runs: a stub
    # that counts the study's calls sees none
    module_spec = importlib.util.spec_from_file_location(script[:-3], SCRIPTS / script)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    calls = []
    monkeypatch.setattr(module, study, lambda *args, **kwargs: calls.append(args) or [])
    taken = tmp_path / "taken"
    taken.write_text("kept")
    argv = [a.format(file=taken, dir=tmp_path) for a in argv]
    monkeypatch.setattr(sys, "argv", [script, *argv])
    with pytest.raises(SystemExit) as exc:
        module.main()
    err = capsys.readouterr().err
    assert (exc.value.code, calls, len(err.splitlines())) == (2, [], 1), err
    assert err.startswith(f"{script}: error: cannot write ")
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept"


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


def test_simulate_prints_the_wout_out_level_tags(capsys, tmp_path):
    cfg = {"study": "power", "family": "normal", "n": 30, "M": 5, "seed": 1, "B": 20,
           "test": "wout", "h0_families": ["normal"], "grids": [{"a": 0.1, "b": 0.9, "k": 5}]}
    path = tmp_path / "wout.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    assert err.splitlines() == [
        "warning: normal/(0.1,0.9,k=5): rank_clamped_to_first_order_statistic",
        "warning: normal/(0.1,0.9,k=5): degenerate_grid",
    ]


@pytest.mark.parametrize("argv", [
    ("--mode", "location", "--known-sigma", "nan"),
    ("--mode", "scale", "--known-mu", "inf"),
    ("--mode", "scale", "--known-mu", "nan", "--method", "oqls"),
    ("--mode", "scale", "--known-mu", "nan", "--method", "mle", "--family", "exponential"),
])
def test_fit_refuses_non_finite_known_parameters(capsys, counting_file, argv):
    # one usage-error line, where the fit printed mu: nan with exit 0, numpy
    # RuntimeWarnings, or (scale-only MLE) ScaleOverflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "fit", "--family", "normal", "--data", counting_file,
                                 *argv)
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert err.startswith("qls: usage error: known parameters must be finite")


@pytest.mark.parametrize("value", ["nan", "1", "2.5"])
def test_fit_mle_refuses_a_known_sigma(capsys, counting_file, value):
    # the MLE takes no known scale: a supplied one is a usage error, where
    # it was ignored and the fit printed with exit 0
    for mode in ("loc-scale", "scale"):
        code, out, err = run_cli(capsys, "fit", "--family", "normal", "--data", counting_file,
                                 "--method", "mle", "--mode", mode, "--known-sigma", value)
        assert (code, out, len(err.splitlines())) == (1, "", 1)
        assert err.startswith("qls: usage error: --known-sigma applies to the QLS methods only")


def test_fit_known_sigma_still_serves_the_qls_methods(capsys, counting_file):
    # a location-only QLS fit reports the supplied scale, and 1 without one
    for argv, sigma in ((("--known-sigma", "2.5"), 2.5), ((), 1.0)):
        code, out, _ = run_cli(capsys, "fit", "--family", "normal", "--data", counting_file,
                               "--mode", "location", "--format", "json", *argv)
        assert code == 0 and json.loads(out)["sigma"] == sigma


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_is_an_input_error(capsys, tmp_path, counting_file, target):
    out = tmp_path / "no_such_dir" / "x.csv" if target == "missing_dir" else tmp_path
    code, stdout, err = run_cli(capsys, "fit", "--family", "normal", "--data", counting_file,
                                "--out", str(out))
    assert (code, stdout) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"qls: input error: cannot write {out}")


def test_data_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("1.5\n2.5\n# r\xe9sum\xe9\n3.5\n".encode("latin-1"))
    for argv in (("fit",), ("gof", "--test", "w")):
        code, out, err = run_cli(capsys, *argv, "--family", "normal", "--data", str(path))
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert err.startswith(f"qls: input error: cannot read {path}")


def test_simulate_config_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "study.json"
    path.write_bytes(json.dumps({**_MC_CONFIG, "label": "caf\xe9"}).encode("utf-16"))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"qls: input error: {path}")



def _contract_digest_module():
    spec = importlib.util.spec_from_file_location("contract_digest",
                                                  SCRIPTS / "contract_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_DIGEST_SLICE = ("run_mc/normal/", "run_mc/laplace/eps=0.05/n=301", "run_mc/readme",
                 "sample/logistic/",
                 "fit_sample/cauchy/gqls/", "power/w/n=50", "bootstrap/logistic/",
                 "fit_big/logistic/gqls", "matrix/gumbel/")


def test_contract_digests_repeat_and_do_not_depend_on_the_block_size(monkeypatch):
    # the replicate blocks and the split-sort threshold follow _BLOCK_VALUES;
    # no output of the catalogue may depend on them
    digest = _contract_digest_module()
    first = digest.digests(_DIGEST_SLICE)
    # a study is 11 entries: tags, and the estimates and summary of each of 5 labels
    # (7 and 3 for the README study, whose 300 replicates span three blocks);
    # bootstrap/logistic/ holds the six-block run at the benchmark's shape
    assert len(first) == 79 and not any(v.startswith("error:") for v in first.values())
    assert {"run_mc/laplace/eps=0.05/n=301/mle",
            "run_mc/laplace/eps=0.05/n=301/summary/mle"} <= first.keys()
    assert digest.digests(_DIGEST_SLICE) == first
    monkeypatch.setattr(quantiles_mod, "_BLOCK_VALUES", 2 ** 12)
    assert digest.digests(_DIGEST_SLICE) == first


def test_contract_digest_diff_names_each_difference(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"x": "1", "y": "2", "z": "3"}))
    b.write_text(json.dumps({"x": "1", "y": "9", "w": "4"}))
    script = [sys.executable, str(SCRIPTS / "contract_digest.py"), "--diff"]
    proc = subprocess.run([*script, str(a), str(b)], capture_output=True, env=SCRIPT_ENV,
                          timeout=120)
    assert proc.returncode == 1
    assert proc.stdout.decode().splitlines() == ["only in B: w", "differs: y", "only in A: z"]
    proc = subprocess.run([*script, str(a), str(a)], capture_output=True, env=SCRIPT_ENV,
                          timeout=120)
    assert proc.returncode == 0 and proc.stdout == b"no difference over 3 entries\n"
