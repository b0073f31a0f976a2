"""Exit codes, artifact shapes, and reproducibility of the CLI."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from manin_toric import bounds, cli, counting, fourier, tauberian
from manin_toric.cli import run
from manin_toric.counting import count_N, count_points
from manin_toric.latticefan import FanValidationError, builtin_fan, make_fan
from manin_toric.tauberian import (MAX_DIRECT_TERMS, DirichletOracle,
                                   PerronLine, builtin_oracle, descend_k,
                                   perron_phi_k)

from fan_oracles import DOUBLE_WINDING, mutate


def run_json(argv, capsys, expect=0):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expect, out
    return json.loads(out)


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 64
        assert "unknown subcommand" in capsys.readouterr().err

    def test_no_arguments(self, capsys):
        assert run([]) == 64

    def test_help(self, capsys):
        assert run(["--help"]) == 0
        assert "manin-toric" in capsys.readouterr().out

    def test_one_parser_no_leak_between_runs(self, capsys):
        # the parser is built once per process; each run parses afresh
        assert cli._build_parser() is cli._build_parser()
        fitted = run_json(["count", "--fan", "builtin:p1", "--bounds",
                           "1e2,1e3", "--fit", "1,1", "--pmax", "500",
                           "--format", "json"], capsys)
        plain = run_json(["count", "--fan", "builtin:p1", "--bounds", "1e2"],
                         capsys)
        zeta = run_json(["zeta", "--fan", "builtin:p1", "--lambda", "2,2",
                         "--B", "100"], capsys)
        assert fitted["config"]["fit"] == "1,1" and "fit" in fitted
        assert fitted["config"]["pmax"] == 500
        assert plain["config"]["fit"] is None and "fit" not in plain
        assert plain["config"]["pmax"] == 100000
        assert "bounds" not in zeta["config"] and "fit" not in zeta["config"]
        assert zeta["config"]["subcommand"] == "zeta"

    def test_bad_flag_value(self, capsys):
        # argparse validation failures exit 2
        assert run(["zeta", "--fan", "builtin:p1", "--lambda", "2,2",
                    "--B", "xyz"]) == 2

    @pytest.mark.parametrize("argv, option", [
        (["count", "--fan", "builtin:p1", "--bounds", "inf"], "--bounds"),
        (["count", "--fan", "builtin:p1", "--bounds", "1e2,nan"],
         "--bounds"),
        (["zeta", "--fan", "builtin:p1", "--lambda", "2,2", "--B", "inf"],
         "--B"),
        (["fibration", "zeta", "--n", "1", "--B", "inf"], "--B"),
        (["tauber", "--oracle", "zeta2", "--X", "nan", "--k", "3"], "--X"),
        (["poisson-check", "--fan", "builtin:p1", "--T=-inf"], "--T"),
    ], ids=["count-inf", "count-nan", "zeta-inf", "fibration-inf",
            "tauber-nan", "poisson-minus-inf"])
    def test_non_finite_float_refused(self, capsys, argv, option):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{option} must be finite" in err

    @pytest.mark.parametrize("argv, message", [
        (["bounds-sweep", "--base-decades", "-1"],
         "--base-decades must be nonnegative, got -1"),
        (["bounds-sweep", "--extend-decades", "-2"],
         "--extend-decades must be nonnegative, got -2"),
        (["constants", "--fan", "builtin:p1", "--pmax", "-5"],
         "--pmax must be nonnegative, got -5"),
    ], ids=["base-decades", "extend-decades", "pmax"])
    def test_negative_count_refused(self, capsys, argv, message):
        assert run(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-5"])
    @pytest.mark.parametrize("argv", [
        ["validate", "--fan", "builtin:p1"],
        ["constants", "--fan", "builtin:p1"],
        ["count", "--fan", "builtin:p1", "--bounds", "1e2"],
        ["height", "--fan", "builtin:p1", "--x", "3"],
        ["zeta", "--fan", "builtin:p1", "--lambda", "2,2", "--B", "100"],
        ["poisson-check", "--fan", "builtin:p1"],
        ["tauber", "--oracle", "zeta2", "--X", "100", "--k", "3"],
        ["fibration", "--n", "1"],
        ["bounds-sweep"],
    ], ids=lambda argv: argv[0])
    def test_threads_below_one_refused(self, capsys, monkeypatch, argv,
                                       threads):
        # refused from the argv, before the subcommand does any work
        monkeypatch.setitem(cli._DISPATCH, argv[0], None)
        assert run(argv + ["--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: thread count must be at least 1\n"
        assert captured.out == ""


class TestValidate:
    def test_builtin_valid(self, capsys):
        doc = run_json(["validate", "--fan", "builtin:p2"], capsys)
        assert doc["status"] == "valid"
        assert doc["fan"]["name"] == "p2"
        assert doc["config"]["subcommand"] == "validate"

    def test_incomplete_fan_fails_validation(self, tmp_path, capsys):
        bad = tmp_path / "halfplane.json"
        bad.write_text(json.dumps(
            {"dim": 2, "rays": [[1, 0], [0, 1]], "maxCones": [[0, 1]]}))
        code = run(["validate", "--fan", str(bad)])
        out = capsys.readouterr().out
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "invalid"

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["validate", "--fan", str(bad)]) == 65

    def test_schema_violation(self, tmp_path, capsys):
        bad = tmp_path / "noschema.json"
        bad.write_text(json.dumps({"dim": 2, "rays": [[1, 0]]}))
        assert run(["validate", "--fan", str(bad)]) == 65

    def test_missing_file(self, capsys):
        assert run(["validate", "--fan", "/nonexistent/fan.json"]) == 2

    def test_unknown_builtin(self, capsys):
        assert run(["validate", "--fan", "builtin:p99"]) == 2


class TestConstants:
    def test_p1_values(self, capsys):
        doc = run_json(["constants", "--fan", "builtin:p1",
                        "--pmax", "20000"], capsys)
        assert doc["alpha"] == "1/2"
        assert doc["rank"] == 1
        assert doc["arch_volume"] == pytest.approx(4.0)
        assert doc["theta"] == pytest.approx(1.2158, rel=1e-3)
        tau = doc["tau"]
        assert tau["lo"] <= 24 / math.pi ** 2 <= tau["hi"]

    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "p1xp1"] + [
        f"hirzebruch-{n}" for n in range(4)])
    def test_rank_is_picard_rank(self, name, capsys):
        doc = run_json(["constants", "--fan", f"builtin:{name}",
                        "--pmax", "2000"], capsys)
        fan = builtin_fan(name)
        assert doc["rank"] == doc["b"] == len(fan.rays) - fan.dim


class TestCount:
    def test_csv_columns(self, capsys):
        code = run(["count", "--fan", "builtin:p1", "--bounds", "1e2",
                    "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "B,N,predicted,ratio"
        fields = lines[1].split(",")
        assert fields[0] == "100.0"
        assert fields[1] == "126"

    def test_exact_small_counts(self, capsys):
        doc = run_json(["count", "--fan", "builtin:p1",
                        "--bounds", "1,4,9"], capsys)
        assert [r["N"] for r in doc["rows"]] == [2, 6, 14]

    def test_stdout_reproducible(self, capsys):
        argv = ["count", "--fan", "builtin:p1xp1", "--bounds", "1e2,1e3"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.csv"
        code = run(["count", "--fan", "builtin:p1", "--bounds", "1e2",
                    "--format", "csv", "--out", str(dest)])
        assert code == 0
        assert dest.read_text().startswith("B,N,predicted,ratio")

    def test_threads_env_ignored(self, capsys, monkeypatch):
        # --threads alone sets the echoed bound; no variable falls in
        monkeypatch.setenv("MANIN_TORIC_THREADS", "2")
        doc = run_json(["count", "--fan", "builtin:p1", "--bounds", "1e2"],
                       capsys)
        assert doc["config"]["threads"] == 1

    def test_threads_start_no_pool(self, capsys):
        # --threads bounds the worker processes from above; the count
        # runs in one, and only the config echo tells the runs apart
        argv = ["count", "--fan", "builtin:p2", "--bounds", "2500"]
        report = json.loads(_fresh_python(f"""
import contextlib, io, json, sys
from manin_toric import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run({argv + ["--threads", "2"]!r})
print(json.dumps({{"code": code, "artifact": out.getvalue(),
                  "pool": "multiprocessing" in sys.modules}}))
"""))
        assert report["code"] == 0
        assert report["pool"] is False
        two = json.loads(report["artifact"])
        one = run_json(argv + ["--threads", "1"], capsys)
        assert two["config"].pop("threads") == 2
        assert one["config"].pop("threads") == 1
        assert two == one

    @pytest.mark.parametrize("fit", ["1", "1,0", "1,-2", "1,2,3", "a,b",
                                     "1.5,1", ""])
    def test_bad_fit_refused(self, capsys, fit):
        assert run(["count", "--fan", "builtin:p1", "--bounds", "1e2,1e3",
                    "--fit", fit]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: --fit takes two integers a,b with "
                                f"b >= 1, got {fit!r}\n")
        assert captured.out == ""

    def test_fit_needs_enough_bounds(self, capsys, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("counted before refusing --fit")

        monkeypatch.setattr(cli, "count_N", no_count)
        assert run(["count", "--fan", "builtin:p2", "--bounds", "3e4",
                    "--fit", "1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: --fit 1,1 needs at least 2 bounds, "
                                "got 1\n")
        assert captured.out == ""

    def test_fit_reports_coefficients(self, capsys):
        doc = run_json(["count", "--fan", "builtin:p1", "--bounds",
                        "1e2,1e3,1e4", "--fit", "1,1"], capsys)
        assert doc["fit"]["a"] == 1 and doc["fit"]["b"] == 1
        assert len(doc["fit"]["coefficients"]) == 1

    def test_rational_lambda_counted_exactly(self, capsys, monkeypatch):
        # a float 1/3 would scale lambda by 2^54 and the bound 10 to
        # 10^(2^54); the exact 1/3 scales it by 3
        def exact_count_N(fan, lam, *args, **kwargs):
            assert all(isinstance(v, (int, Fraction)) for v in lam)
            return count_N(fan, lam, *args, **kwargs)

        monkeypatch.setattr(cli, "count_N", exact_count_N)
        t0 = time.perf_counter()
        doc = run_json(["count", "--fan", "builtin:p1", "--lambda",
                        "1/3,1/3", "--bounds", "10"], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert doc["rows"][0]["N"] == count_points(builtin_fan("p1"),
                                                   (1, 1), 1000)
        assert doc["config"]["lam"] == [1 / 3, 1 / 3]

    @pytest.mark.parametrize("fan, lam", [
        ("p2", "1e300,1,1"), ("p2", "1e300,1e300,1e300"),
        ("p1xp1", "1e300,1e300,1e300,1e300")])
    def test_huge_lambda_counts_at_once(self, capsys, fan, lam):
        # only the four points with all |x_i| = 1 have height 1 <= 10
        doc = run_json(["count", "--fan", f"builtin:{fan}", "--lambda", lam,
                        "--bounds", "10"], capsys)
        assert doc["rows"][0]["N"] == 4

    def test_negative_bound_counts_nothing(self, capsys):
        # under lambda = rho / 2 the bound scales as B^2: -100 must not
        # count as 100, and a grid running from it stays ascending
        argv = ["count", "--fan", "builtin:p1", "--lambda", "1/2,1/2"]
        doc = run_json(argv + ["--bounds=-100"], capsys)
        assert [r["N"] for r in doc["rows"]] == [0]
        doc = run_json(argv + ["--bounds=-100,10"], capsys)
        assert [r["N"] for r in doc["rows"]] == [
            0, count_points(builtin_fan("p1"), (1, 1), 100)]

    @pytest.mark.parametrize("fan", ["p1", "p1xp1"])
    def test_oversized_table_refused(self, capsys, fan):
        # 1e30 asks for Moebius values up to 10^15: refused with exit 2
        # before any table is built, not a MemoryError from numpy
        assert run(["count", "--fan", f"builtin:{fan}", "--bounds",
                    "1e30"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: Cox-coordinate count would build a table of 1e+15 "
            "entries (B^L = 1e+30), over the limit of 10000000\n")
        assert captured.out == ""


class TestHeight:
    def test_exact_product(self, capsys):
        doc = run_json(["height", "--fan", "builtin:p1xp1",
                        "--x", "3/2,5"], capsys)
        assert doc["height_exact"] == "225"
        assert doc["height"] == pytest.approx(225.0)
        places = {str(r["place"]): r["factor"] for r in doc["rows"]}
        assert set(places) == {"inf", "2", "3", "5"}

    def test_exact_non_convex_lambda(self, capsys):
        doc = run_json(["height", "--fan", "builtin:hirzebruch-1",
                        "--lambda", "1,5,1,1", "--x", "3/2,5"], capsys)
        assert doc["height_exact"] == "421875"
        assert doc["height"] == pytest.approx(421875.0)

    def test_rejects_boundary_point(self, capsys):
        assert run(["height", "--fan", "builtin:p1xp1",
                    "--x", "0,5"]) == 2

    def test_rejects_wrong_arity(self, capsys):
        assert run(["height", "--fan", "builtin:p1xp1", "--x", "3"]) == 2


class TestZeta:
    def test_partial_sum(self, capsys):
        doc = run_json(["zeta", "--fan", "builtin:p1", "--lambda", "2,2",
                        "--B", "100"], capsys)
        assert doc["value_re"] > 2.0
        assert doc["value_im"] == 0.0
        assert doc["n_points"] > 100

    def test_divergent_exponent_rejected(self, capsys):
        assert run(["zeta", "--fan", "builtin:p1", "--lambda", "rho",
                    "--B", "100"]) == 2

    @pytest.mark.parametrize("fan,lam", [
        ("p1", "2,3"), ("p2", "2,2.5,3"), ("p3", "2,2,2,3"),
        ("p1xp1", "2,3,2.5,2")])
    def test_no_walk_on_projective_spaces_and_p1xp1(self, capsys,
                                                    monkeypatch, fan, lam):
        def never(*args, **kwargs):
            raise AssertionError("the zeta sum walked")

        monkeypatch.setattr(counting, "_count_general", never)
        doc = run_json(["zeta", "--fan", f"builtin:{fan}", "--lambda", lam,
                        "--B", "500"], capsys)
        assert doc["n_points"] > 0

    @pytest.mark.parametrize("fan,lam", [("p1", "2,2"),
                                         ("p1xp1", "2,2,2,2")])
    def test_oversized_table_refused(self, capsys, fan, lam):
        # the height-class sum would need heights up to 10^15: refused
        # with exit 2 before any table is built
        assert run(["zeta", "--fan", f"builtin:{fan}", "--lambda", lam,
                    "--B", "1e30"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: height-class zeta sum would build a table of 1e+15 "
            "entries (B = 1e+30), over the limit of 10000000\n")
        assert captured.out == ""


class TestPoissonCheck:
    FAST = ["--T", "600", "--pmax", "150", "--B0", "800"]

    def test_identity_holds(self, capsys):
        doc = run_json(["poisson-check", "--fan", "builtin:p1",
                        "--tol", "1e-4"] + self.FAST, capsys)
        assert doc["status"] == "ok"
        assert doc["rel_error"] < 1e-4

    @pytest.mark.parametrize("flag, value, message", [
        ("--T", "0", "T = 0.0 must be positive"),
        ("--panel-width", "0", "panel width = 0.0 must be positive"),
        ("--B0", "-5", "B0 = -5.0 must be positive"),
        ("--pmax", "0", "pmax = 0 must be at least 2"),
        ("--pmax", "1", "pmax = 1 must be at least 2"),
        ("--B0", "0.001", "B0 = 0.001 leaves every direct sum empty"),
    ], ids=["T", "panel-width", "B0-negative", "pmax-zero", "pmax-one",
            "B0-no-point"])
    def test_zero_width_refused(self, capsys, flag, value, message):
        # an invalid request exits 2 without an artifact, rather than
        # reporting a numeric miss
        assert run(["poisson-check", "--fan", "builtin:p1", flag, value]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_tolerance_failure_still_reports(self, tmp_path, capsys):
        dest = tmp_path / "poisson.json"
        code = run(["poisson-check", "--fan", "builtin:p1",
                    "--tol", "1e-15", "--out", str(dest)] + self.FAST)
        assert code == 3
        doc = json.loads(dest.read_text())
        assert doc["status"] == "tolerance-exceeded"

    def test_tolerance_failure_names_the_quantity(self, capsys):
        code = run(["poisson-check", "--fan", "builtin:p1",
                    "--tol", "1e-15"] + self.FAST)
        captured = capsys.readouterr()
        assert code == 3
        doc = json.loads(captured.out)
        rel = doc["rel_error"]
        assert captured.err == (
            f"tolerance failure: rel_error = {rel!r} exceeds tol = 1e-15 "
            f"by {rel - 1e-15!r}\n")
        # the line goes to stderr only: the artifact is the one a passing
        # tolerance writes, but for its config echo and status
        assert run(["poisson-check", "--fan", "builtin:p1",
                    "--tol", "1"] + self.FAST) == 0
        passing = capsys.readouterr()
        assert passing.err == ""
        ok = json.loads(passing.out)
        assert ok.pop("status") == "ok"
        assert ok.pop("config")["tol"] == 1.0
        assert doc.pop("status") == "tolerance-exceeded"
        assert doc.pop("config")["tol"] == 1e-15
        assert doc == ok


class TestTauber:
    def test_zeta2_report(self, capsys):
        doc = run_json(["tauber", "--oracle", "zeta2", "--X", "1e3",
                        "--k", "3"], capsys)
        assert doc["brackets"]["contains_target"]
        assert doc["brackets"]["lower"] <= doc["brackets"]["upper"]
        # divisor summatory: residual above the smooth main term is
        # (2 gamma - 1) X + O(sqrt X), a few percent of N here
        assert abs(doc["residual"]) < 0.05 * doc["N"]
        assert doc["status"] == "ok"

    def test_k_below_growth_exponent(self, capsys):
        assert run(["tauber", "--oracle", "zeta2", "--X", "1e3",
                    "--k", "1"]) == 2

    def test_oracle_without_pole(self, capsys):
        assert run(["tauber", "--oracle", "one", "--X", "1e3",
                    "--k", "2"]) == 2
        assert "'one' has no pole" in capsys.readouterr().err

    def test_unknown_oracle(self, capsys):
        assert run(["tauber", "--oracle", "lfunction", "--X", "1e3",
                    "--k", "2"]) == 2

    @pytest.mark.parametrize("T", ["0", "-5"])
    def test_nonpositive_truncation_refused(self, capsys, T):
        assert run(["tauber", "--oracle", "zeta2", "--X", "1e3", "--k", "3",
                    "--T", T]) == 2
        assert f"T = {float(T)} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("tol, message", [
        ("-1", "--tol must be nonnegative, got -1.0"),
        ("0", "tol = 0.0 must be positive"),
    ], ids=["-1", "0"])
    def test_nonpositive_tolerance_refused(self, capsys, tol, message):
        assert run(["tauber", "--oracle", "zeta2", "--X", "1e3", "--k", "3",
                    "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "raise T" not in err

    @pytest.mark.parametrize("X", ["0.5", "20"])
    def test_small_X_refused(self, capsys, X):
        # the default window max(X^-1/2, 20/X) is empty up to X = 20
        assert run(["tauber", "--oracle", "zeta2", "--X", X, "--k", "3"]) == 2
        err = capsys.readouterr().err
        assert f"X = {X} is too small" in err
        assert "tolerance failure" not in err

    def test_X_just_above_the_window_edge(self, capsys):
        doc = run_json(["tauber", "--oracle", "zeta2", "--X", "21",
                        "--k", "3"], capsys)
        assert doc["status"] == "ok"

    def test_truncation_too_short(self, capsys):
        assert run(["tauber", "--oracle", "p1", "--X", "5000",
                    "--k", "2", "--T", "60"]) == 3
        out, err = capsys.readouterr()
        line = PerronLine(builtin_oracle("p1"), None, 2, T=60.0)
        bound = line.tail(5000.0)
        limit = 1e-3 * (abs(line.integral(5000.0)) + 1)
        assert out == ""
        assert err == (
            f"tolerance failure: tail_bound = {bound!r} exceeds tol * "
            f"(|phi_k| + 1) = {limit!r} by {bound - limit!r} at "
            "X = 5000.0, T = 60.0; raise T\n")

    @pytest.mark.parametrize("bracket", [(0.0, 1.0), (1e9, 2e9)],
                             ids=["below-target", "above-target"])
    def test_bracket_miss_names_the_target(self, capsys, monkeypatch,
                                           bracket):
        lo, hi = bracket
        monkeypatch.setattr(cli, "descend_k", lambda *args: bracket)
        assert run(["tauber", "--oracle", "zeta2", "--X", "1e3",
                    "--k", "3"]) == 3
        out, err = capsys.readouterr()
        doc = json.loads(out)
        target = builtin_oracle("zeta2").phi_direct(1e3, 2)
        assert doc["status"] == "bracket-miss"
        assert doc["brackets"] == {"lower": lo, "upper": hi,
                                   "target": target,
                                   "contains_target": False}
        gap = target - hi if target > hi else lo - target
        assert err == (
            f"bracket-miss: target = {target!r} lies outside lower = "
            f"{lo!r}, upper = {hi!r} by {gap!r}\n")

    def test_values_equal_fresh_calls(self, capsys):
        doc = run_json(["tauber", "--oracle", "zeta2", "--X", "1e3",
                        "--k", "3"], capsys)
        oracle = builtin_oracle("zeta2")
        assert doc["phi_k"] == perron_phi_k(oracle, None, 1e3, 3)
        lo, hi = descend_k(lambda Y: perron_phi_k(oracle, None, Y, 3), 3,
                           1e3)
        brackets = doc["brackets"]
        assert (brackets["lower"], brackets["upper"]) == (lo, hi)

    def test_one_coefficient_table(self, capsys, monkeypatch):
        calls = []
        table = DirichletOracle.coefficients

        def counted(self, N):
            calls.append(N)
            return table(self, N)

        monkeypatch.setattr(DirichletOracle, "coefficients", counted)
        doc = run_json(["tauber", "--oracle", "zeta2", "--X", "1e3",
                        "--k", "3"], capsys)
        assert calls == [1000]
        # both direct sums equal a separate call each
        oracle = builtin_oracle("zeta2")
        assert doc["brackets"]["target"] == oracle.phi_direct(1e3, 2)
        assert doc["N"] == oracle.phi_direct(1e3, 0)

    @pytest.mark.parametrize("T, nodes", [("1e6", 57295788),
                                          ("1e7", 572957796)])
    def test_oversized_rule_refused_before_the_series(self, capsys,
                                                      monkeypatch, T, nodes):
        # the tail samples alone would evaluate zeta at |Im s| up to 2.6 T
        calls = []
        monkeypatch.setattr(tauberian, "zeta_line", calls.append)
        assert run(["tauber", "--oracle", "zeta2", "--X", "1e4", "--k", "3",
                    "--T", T]) == 2
        assert capsys.readouterr().err == (
            f"error: a quadrature rule of {nodes} nodes on [0, {float(T)}] "
            "is over the limit of 1000000\n")
        assert calls == []

    def test_oversized_rule_refused_before_the_direct_sums(self, capsys,
                                                           monkeypatch):
        # the rule follows from T and X alone and is checked at
        # X (1 + eta), the largest X of the descent; the direct sums over
        # 10^7 terms would first take about a second and 340 MB
        def direct(*args):
            raise AssertionError("phi_direct called")
        monkeypatch.setattr(DirichletOracle, "phi_direct", direct)
        assert run(["tauber", "--oracle", "zeta2", "--X", "1e7", "--k", "3",
                    "--T", "1e6"]) == 2
        assert capsys.readouterr().err == (
            "error: a quadrature rule of 97402836 nodes on [0, 1000000.0] "
            "is over the limit of 1000000\n")

    def test_oversized_direct_sum_fails_fast(self, capsys):
        t0 = time.perf_counter()
        assert run(["tauber", "--oracle", "zeta2", "--X", "1e12",
                    "--k", "3"]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "1000000000000" in err and str(MAX_DIRECT_TERMS) in err


class TestFibration:
    def test_zeta_cross_check(self, capsys):
        doc = run_json(["fibration", "--n", "2", "--lambda-fiber", "rho",
                        "--alpha-base", "2", "--B", "300"], capsys)
        cc = doc["cross_check"]
        assert cc["performed"] and cc["status"] == "ok"
        assert cc["multiset_equal"]
        assert cc["rel_error"] <= 1e-10
        assert doc["n_points"] == cc["direct_points"]

    def test_non_convex_direct_route(self, capsys):
        # the direct reference enumerates F_3 by rho, which is not
        # convex there
        doc = run_json(["fibration", "zeta", "--n", "3", "--alpha-base",
                        "6", "--B", "2000"], capsys)
        cc = doc["cross_check"]
        assert cc["status"] == "ok"
        assert cc["multiset_equal"]

    def test_csv_rows_are_base_points(self, capsys):
        code = run(["fibration", "--n", "1", "--B", "100",
                    "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "b0,b1,H1,points,sum"

    def test_unmatched_class_skips(self, capsys):
        doc = run_json(["fibration", "--n", "2", "--lambda-fiber", "1,2",
                        "--alpha-base", "3", "--B", "100"], capsys)
        assert doc["cross_check"]["status"] == "skipped"

    def test_negative_twist_skips_cross_check(self, capsys):
        doc = run_json(["fibration", "--n", "-2", "--B", "100"], capsys)
        assert doc["cross_check"]["performed"] is False

    def test_constants_mode(self, capsys):
        doc = run_json(["fibration", "constants", "--n", "1",
                        "--pmax", "20000"], capsys)
        assert doc["alpha_equal"] and doc["tau_intervals_overlap"]
        assert doc["fibration"]["alpha"] == "1/6"
        assert doc["status"] == "ok"

    def test_bound_past_the_count_table_refused(self, capsys):
        assert run(["fibration", "zeta", "--n", "-3", "--B", "1e15"]) == 2
        err = capsys.readouterr().err
        assert "(B = 1e+15), over the limit of 10000000" in err
        assert "B^L" not in err

    def test_constants_negative_twist(self, capsys):
        assert run(["fibration", "constants", "--n", "-1"]) == 2

    def test_zero_tolerance_allowed(self, capsys):
        # the two routes agree exactly here, so tol = 0 passes
        doc = run_json(["fibration", "--n", "1", "--B", "100", "--tol", "0"],
                       capsys)
        assert doc["cross_check"]["rel_error"] == 0.0
        assert doc["cross_check"]["status"] == "ok"

    def test_value_mismatch_names_rel_error(self, capsys, monkeypatch):
        direct = cli.direct_zeta_partial

        def shifted(*args):
            height_counts, value, n_pts = direct(*args)
            return height_counts, value * (1 + 1e-6), n_pts

        monkeypatch.setattr(cli, "direct_zeta_partial", shifted)
        assert run(["fibration", "--n", "1", "--B", "100"]) == 3
        captured = capsys.readouterr()
        cc = json.loads(captured.out)["cross_check"]
        assert cc["status"] == "mismatch" and cc["multiset_equal"]
        rel = cc["rel_error"]
        assert captured.err == (
            f"mismatch: rel_error = {rel!r} exceeds tol = 1e-10 by "
            f"{rel - 1e-10!r}\n")

    def test_multiset_mismatch_names_both_counts(self, capsys, monkeypatch):
        direct = cli.direct_zeta_partial

        def extra_point(*args):
            height_counts, value, n_pts = direct(*args)
            top = max(height_counts)
            return ({**height_counts, top: height_counts[top] + 1}, value,
                    n_pts + 1)

        monkeypatch.setattr(cli, "direct_zeta_partial", extra_point)
        assert run(["fibration", "--n", "1", "--B", "100"]) == 3
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        n = doc["n_points"]
        assert doc["cross_check"]["direct_points"] == n + 1
        assert captured.err == (
            f"mismatch: multiset_equal is false: {n} fibration points "
            f"against {n + 1} direct\n")

    def test_constants_mismatch_names_both_sides(self, capsys, monkeypatch):
        predicted = cli.fibration_predicted_constant

        def off(*args, **kwargs):
            fc = predicted(*args, **kwargs)
            return fc._replace(alpha=fc.alpha * 2, lower=fc.upper + 1,
                               upper=fc.upper + 2)

        monkeypatch.setattr(cli, "fibration_predicted_constant", off)
        assert run(["fibration", "constants", "--n", "1",
                    "--pmax", "2000"]) == 3
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        fib, direct = doc["fibration"], doc["direct"]
        assert doc["status"] == "mismatch"
        assert captured.err == (
            f"mismatch: alpha_equal is false: fibration alpha = "
            f"{fib['alpha']} against direct alpha = {direct['alpha']}; "
            f"tau_intervals_overlap is false: fibration "
            f"[{fib['theta_lo']!r}, {fib['theta_hi']!r}] against direct "
            f"[{direct['theta_lo']!r}, {direct['theta_hi']!r}]\n")
        # a passing check writes nothing to stderr
        monkeypatch.setattr(cli, "fibration_predicted_constant", predicted)
        assert run(["fibration", "constants", "--n", "1",
                    "--pmax", "2000"]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, job", [
    (["poisson-check", "--fan", "builtin:p1"], "poisson_check"),
    (["fibration", "zeta", "--n", "1"], "fibration_zeta_partial"),
    (["fibration", "constants", "--n", "1"],
     "fibration_predicted_constant"),
], ids=["poisson-check", "fibration-zeta", "fibration-constants"])
def test_negative_tolerance_refused_before_work(capsys, monkeypatch, argv,
                                                job):
    def no_work(*args, **kwargs):
        raise AssertionError("the job ran")

    monkeypatch.setattr(cli, job, no_work)
    assert run(argv + ["--tol", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--tol must be nonnegative, got -1.0" in captured.err
    assert captured.out == ""


class TestBoundsSweep:
    def test_all_kinds_pass(self, capsys):
        doc = run_json(["bounds-sweep", "--base-decades", "3",
                        "--extend-decades", "1"], capsys)
        assert doc["status"] == "ok"
        assert [r["kind"] for r in doc["rows"]] == \
            ["plus", "minus", "alpha", "omega"]
        assert all(r["passed"] for r in doc["rows"])

    def test_tight_slack_exits_3(self, capsys):
        # the extended suprema of plus, minus and omega exceed half the
        # base ones; alpha's stays below it
        doc = run_json(["bounds-sweep", "--slack", "0.5"], capsys, expect=3)
        assert doc["status"] == "unstable-or-divergent"
        assert [r["passed"] for r in doc["rows"]] == \
            [False, False, True, False]

    def test_single_kind_csv(self, capsys):
        code = run(["bounds-sweep", "--kind", "alpha", "--base-decades",
                    "3", "--extend-decades", "1", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == \
            "kind,sup_base,sup_extended,stable,passed,n_rows"

    def test_instability_is_named(self, capsys):
        assert run(["bounds-sweep", "--kind", "plus", "--slack", "1.0",
                    "--base-decades", "2", "--extend-decades", "2"]) == 3
        captured = capsys.readouterr()
        row = json.loads(captured.out)["rows"][0]
        allowed = 1.0 * row["sup_base"]
        assert captured.err == (
            f"unstable: plus sup_extended = {row['sup_extended']!r} exceeds "
            f"slack * sup_base = {allowed!r} by "
            f"{row['sup_extended'] - allowed!r}\n")

    def test_non_finite_ratio_names_its_row(self, capsys, monkeypatch):
        def rows(kmax):
            yield {"A": 1.0, "B": 10.0, "lhs": 1.0, "rhs": 0.0,
                   "ratio": math.inf}

        monkeypatch.setitem(bounds._KIND_ROWS, "plus", rows)
        assert run(["bounds-sweep", "--kind", "plus"]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status"] == "unstable-or-divergent"
        assert captured.err == (
            "divergent: plus ratio = inf at A = 1.0, B = 10.0\n")


FANS = {
    # cone (0, 2) has determinant -2, cone 0 is unimodular
    "non-regular": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -2]],
                    "maxCones": [[0, 1], [1, 2], [0, 2]]},
    "det-2-first-cone": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -2]],
                         "maxCones": [[0, 2], [0, 1], [1, 2]]},
    "non-primitive": {"dim": 1, "rays": [[2], [-3]],
                      "maxCones": [[0], [1]]},
    "one-ray-cone": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                     "maxCones": [[0], [1, 2], [0, 2]]},
    "three-ray-cone": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                       "maxCones": [[0, 1, 2], [1, 2], [0, 2]]},
}


@pytest.mark.parametrize("argv, message", [
    (["constants", "--fan", "builtin:p1", "--pmax", "10000000000"],
     "a prime sieve up to 10000000000 is over the limit of 100000000"),
    (["poisson-check", "--fan", "builtin:p1", "--pmax", "10000000000"],
     "a prime sieve up to 10000000000 is over the limit of 100000000"),
    (["tauber", "--oracle", "zeta2", "--X", "1e4", "--k", "3", "--T",
      "1e6"], "a quadrature rule of 57295788 nodes on [0, 1000000.0] is "
     "over the limit of 1000000"),
    (["poisson-check", "--fan", "builtin:p1", "--panel-width", "1e-6"],
     "a quadrature rule of 32000000000 nodes on [0, 2000.0] is over the "
     "limit of 1000000"),
    (["poisson-check", "--fan", "builtin:p1", "--T", "1e9"],
     "a quadrature rule of 4000000000 nodes on [0, 1000000000.0] is over "
     "the limit of 1000000"),
    (["poisson-check", "--fan", "builtin:p1", "--T", "1e6"],
     "a quadrature rule of 4000000 nodes on [0, 1000000.0] is over the "
     "limit of 1000000"),
    (["bounds-sweep", "--slack", "0"], "--slack must be positive, got 0.0"),
    (["bounds-sweep", "--slack", "-1"],
     "--slack must be positive, got -1.0"),
    (["constants", "--fan", "non-regular"],
     "maximal cone (0, 2) is not unimodular (det=-2)"),
    (["constants", "--fan", "det-2-first-cone"],
     "maximal cone (0, 2) is not unimodular (det=-2)"),
    (["constants", "--fan", "non-primitive"], "ray (2,) is not primitive"),
    (["constants", "--fan", "one-ray-cone"],
     "maximal cone (0,) must have 2 distinct rays"),
    (["constants", "--fan", "three-ray-cone"],
     "maximal cone (0, 1, 2) must have 2 distinct rays"),
    # a float power that overflowed, an exact int quotient too large for a
    # float, and an exact power of 2e308 that would not finish
    (["fibration", "zeta", "--n", "2", "--lambda-fiber", "400.5,1.5",
      "--B", "1000"], "fiber exponents 400.5, 1.5 are too large for "
     "B = 1000: B^(mu1 + mu2) leaves the float range"),
    (["fibration", "zeta", "--n", "0", "--lambda-fiber", "1e7,1e7",
      "--B", "100"], "fiber exponents 1e+07, 1e+07 are too large for "
     "B = 100: B^(mu1 + mu2) leaves the float range"),
    (["fibration", "zeta", "--n", "0", "--lambda-fiber", "1e308,1e308",
      "--B", "100"], "fiber exponents 1e+308, 1e+308 are too large for "
     "B = 100: B^(mu1 + mu2) leaves the float range"),
    (["bounds-sweep", "--base-decades", "200", "--extend-decades", "200"],
     "--base-decades 200 plus --extend-decades 200 is 400 decades, over the "
     "limit of 102, past which the grid leaves the float range"),
], ids=["constants-pmax", "poisson-pmax", "tauber-T", "poisson-panel-width",
        "poisson-T-1e9", "poisson-T-1e6", "slack-zero", "slack-negative",
        "non-regular", "det-2-first-cone", "non-primitive", "one-ray-cone",
        "three-ray-cone", "fiber-float-overflow", "fiber-int-quotient",
        "fiber-1e308", "sweep-decades"])
def test_refusals_exit_2_with_one_error_line(tmp_path, capsys, argv,
                                              message):
    # infeasible sizes and invalid inputs are refused before any large
    # allocation: exit 2, one stderr line, no artifact
    if argv[2] in FANS:
        path = tmp_path / f"{argv[2]}.json"
        path.write_text(json.dumps(FANS[argv[2]]))
        argv = argv[:2] + [str(path)] + argv[3:]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# one fan per mutation of tests/fan_oracles.py, each of p2; the unused
# ray (1, 1), the double winding and the det -2 cone (0, 2) are the fans
# of which sampled checks made an alpha and a theta
INVALID_FANS = {
    **{kind: mutate(builtin_fan("p2"), kind, 0)
       for kind in ("drop", "unused", "scale", "det2")},
    "double": DOUBLE_WINDING,
    "det-2-cone": (2, [[1, 0], [0, 1], [-1, -2]], [[0, 1], [1, 2], [0, 2]]),
}


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["constants"],
    ["count", "--bounds", "100"],
    ["height", "--x", "2,3"],
    ["zeta", "--lambda", "rho", "--B", "100"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("kind", INVALID_FANS)
def test_invalid_fan_refused_on_load(tmp_path, capsys, kind, argv):
    dim, rays, cones = INVALID_FANS[kind]
    with pytest.raises(FanValidationError) as refused:
        make_fan(dim, rays, cones)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({"dim": dim, "rays": [list(r) for r in rays],
                                "maxCones": [list(c) for c in cones]}))
    assert run(argv[:1] + ["--fan", str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    if argv[0] != "validate":
        assert captured.err == f"error: {refused.value}\n"
        assert captured.out == ""
        return
    # validate writes its artifact instead of the error line
    doc = json.loads(captured.out)
    assert captured.err == ""
    assert doc["status"] == "invalid" and doc["reason"] == str(refused.value)
    assert doc["fan"] == {"name": kind, "dim": dim, "n_rays": len(rays),
                          "n_max_cones": len(cones)}


def _fresh_python(script: str) -> str:
    """Stripped stdout of script run in a new interpreter on this
    package's source, which must exit 0."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_never_loads_scipy():
    # scipy's import costs more than most CLI runs, and mpmath is only a
    # test reference; the package must reach its quadratures and zeta
    # values without either, on the three subcommands that integrate
    # numerically as well as at import
    script = """
import contextlib, io, sys
from manin_toric import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["bounds-sweep", "--kind", "omega", "--base-decades",
                    "1", "--extend-decades", "0"]) == 0
    assert cli.run(["poisson-check", "--fan", "builtin:p1", "--T", "600",
                    "--pmax", "150", "--B0", "800"]) == 0
    assert cli.run(["tauber", "--oracle", "p1", "--X", "2e3", "--k", "3",
                    "--T", "150"]) == 0
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "mpmath")))
"""
    assert _fresh_python(script) == "[]"


# jobs whose float sums have more than 10^4 terms: the Perron line sums
# (10,320 nodes) and direct sums (10^5 terms) of tauber, the Poisson
# integral (12,000 nodes) of poisson-check
LONG_SUM_JOBS = {
    "tauber": ["tauber", "--oracle", "zeta2", "--X", "1e5", "--k", "3",
               "--T", "150"],
    "poisson-check": ["poisson-check", "--fan", "builtin:p1", "--T", "3000"],
}


@pytest.mark.parametrize("argv", LONG_SUM_JOBS.values(), ids=LONG_SUM_JOBS)
def test_artifacts_do_not_depend_on_blas_threads(argv):
    # np.dot hands a float vector of more than 10^4 entries to OpenBLAS's
    # thread pool, whose rounding follows the thread count
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "2", None):
        env = {k: v for k, v in os.environ.items() if k not in
               ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                "OMP_NUM_THREADS")}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, "-m", "manin_toric.cli",
                               *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1


def test_long_float_sums_never_reach_blas(capsys, monkeypatch):
    dot, long = np.dot, []

    def guarded(a, b, *rest):
        for x in map(np.asarray, (a, b)):
            if x.ndim == 1 and x.dtype.kind in "fc" and x.size > 10**4:
                long.append(x.size)
        return dot(a, b, *rest)

    monkeypatch.setattr(np, "dot", guarded)
    for argv in LONG_SUM_JOBS.values():
        assert run(argv) == 0
    capsys.readouterr()
    assert long == []


def test_weighted_sums_match_fsum(capsys, monkeypatch):
    # every weighted sum of both jobs: three line sums (phi_k at X and
    # X(1 -/+ eta)), the direct sum phi_2 and one Poisson integral, each
    # within 1e-13 of the correctly rounded sum
    wsum, sums = fourier._wsum, []

    def recorded(w, v):
        got = wsum(w, v)
        sums.append((w.size, got, math.fsum((w * v).tolist())))
        return got

    monkeypatch.setattr(fourier, "_wsum", recorded)
    monkeypatch.setattr(tauberian, "_wsum", recorded)
    for argv in LONG_SUM_JOBS.values():
        assert run(argv) == 0
    capsys.readouterr()
    assert sorted(n for n, _, _ in sums) == [10320] * 3 + [12000, 100001]
    for n, got, exact in sums:
        assert abs(got - exact) <= 1e-13 * abs(exact), n


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_artifacts_match_reference(capsys):
    # every count and fibration zeta job of the benchmark, at each jitter,
    # prints the artifact whose sha256 the benchmark recorded
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # dataclasses look the module up
    spec.loader.exec_module(workloads)
    table = json.loads(
        (PERFBENCH / "reference_sha256.json").read_text())["artifacts"]
    jobs = workloads.WORKLOADS["count"] + tuple(
        job for job in workloads.WORKLOADS["zeta"]
        if job.name.startswith("fibration.zeta"))
    differ = []
    for job in jobs:
        for pct in workloads.JITTER_PCT:
            assert run(job.render(pct)) == 0
            digest = hashlib.sha256(
                capsys.readouterr().out.encode()).hexdigest()
            if digest != table[f"{job.name}@{pct}"]:
                differ.append(f"{job.name}@{pct}")
    assert len(jobs) * len(workloads.JITTER_PCT) == 45
    assert differ == []
