"""Exit codes, artifact shapes, and reproducibility of the CLI."""

import json
import math
import time
from fractions import Fraction

import pytest

from manin_toric import cli
from manin_toric.cli import run
from manin_toric.counting import count_N, count_points
from manin_toric.latticefan import builtin_fan


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

    def test_bad_flag_value(self, capsys):
        # argparse validation failures exit 2
        assert run(["zeta", "--fan", "builtin:p1", "--lambda", "2,2",
                    "--B", "xyz"]) == 2


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

    def test_threads_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MANIN_TORIC_THREADS", "2")
        doc = run_json(["count", "--fan", "builtin:p1", "--bounds", "1e2"],
                       capsys)
        assert doc["config"]["threads"] == 2

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

    def test_bad_thread_count(self, capsys):
        assert run(["count", "--fan", "builtin:p1", "--bounds", "1e2",
                    "--threads", "0"]) == 2


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


class TestPoissonCheck:
    FAST = ["--T", "600", "--pmax", "150", "--B0", "800"]

    def test_identity_holds(self, capsys):
        doc = run_json(["poisson-check", "--fan", "builtin:p1",
                        "--tol", "1e-4"] + self.FAST, capsys)
        assert doc["status"] == "ok"
        assert doc["rel_error"] < 1e-4

    def test_tolerance_failure_still_reports(self, tmp_path, capsys):
        dest = tmp_path / "poisson.json"
        code = run(["poisson-check", "--fan", "builtin:p1",
                    "--tol", "1e-15", "--out", str(dest)] + self.FAST)
        assert code == 3
        doc = json.loads(dest.read_text())
        assert doc["status"] == "tolerance-exceeded"


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

    def test_unknown_oracle(self, capsys):
        assert run(["tauber", "--oracle", "lfunction", "--X", "1e3",
                    "--k", "2"]) == 2

    def test_truncation_too_short(self, capsys):
        assert run(["tauber", "--oracle", "p1", "--X", "5000",
                    "--k", "2", "--T", "60"]) == 3


class TestFibration:
    def test_zeta_cross_check(self, capsys):
        doc = run_json(["fibration", "--n", "2", "--lambda-fiber", "rho",
                        "--alpha-base", "2", "--B", "300"], capsys)
        cc = doc["cross_check"]
        assert cc["performed"] and cc["status"] == "ok"
        assert cc["multiset_equal"]
        assert cc["rel_error"] <= 1e-10
        assert doc["n_points"] == cc["direct_points"]

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

    def test_constants_negative_twist(self, capsys):
        assert run(["fibration", "constants", "--n", "-1"]) == 2


class TestBoundsSweep:
    def test_all_kinds_pass(self, capsys):
        doc = run_json(["bounds-sweep", "--base-decades", "3",
                        "--extend-decades", "1"], capsys)
        assert doc["status"] == "ok"
        assert [r["kind"] for r in doc["rows"]] == \
            ["plus", "minus", "alpha", "omega"]
        assert all(r["passed"] for r in doc["rows"])

    def test_single_kind_csv(self, capsys):
        code = run(["bounds-sweep", "--kind", "alpha", "--base-decades",
                    "3", "--extend-decades", "1", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == \
            "kind,sup_base,sup_extended,stable,passed,n_rows"
