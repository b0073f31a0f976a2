"""Tests of the benchmark itself: oracles, failure accounting, tracer."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
import run
import worker
import workloads
from tracer import Tracer

import manin_toric
from manin_toric import cli
from manin_toric.counting import count_points
from manin_toric.latticefan import builtin_fan
from manin_toric.tauberian import DirichletOracle


@pytest.mark.parametrize("fan", sorted(oracles.COUNT_ORACLES))
def test_count_oracles_agree_with_engine(fan):
    f = builtin_fan(fan)
    rho = (1,) * len(f.rays)
    for B in (1, 7.5, 64, 99.0, 300):
        assert oracles.oracle_count(fan, float(B)) == count_points(f, rho, B)


def test_projective_oracle_known_values():
    # the brute-force values asserted by the counting test suite
    assert [oracles.count_projective(2, B) for B in (1, 8, 27, 30, 1000)] \
        == [4, 28, 100, 100, 3364]


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _corrupt(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


CASES = [
    (["count", "--fan", "builtin:p1xp1", "--bounds", "50,99.0"],
     lambda d: d["rows"][1].update(N=d["rows"][1]["N"] + 4)),
    (["count", "--fan", "builtin:p2", "--bounds", "30"],
     lambda d: d["rows"][0].update(B=31.0)),
    (["fibration", "zeta", "--n", "1", "--B", "40"],
     lambda d: d["cross_check"].update(multiset_equal=False)),
    (["fibration", "zeta", "--n", "0", "--B", "40"],
     lambda d: d.update(n_points=d["n_points"] - 2)),
    (["tauber", "--oracle", "zeta2", "--X", "2000", "--k", "3"],
     lambda d: d["brackets"].update(contains_target=False)),
    (["constants", "--fan", "builtin:p2"],
     lambda d: d.update(alpha="1/2")),
    (["bounds-sweep", "--kind", "plus"],
     lambda d: d.update(status="unstable-or-divergent")),
]


@pytest.mark.parametrize("argv,edit", CASES, ids=[c[0][0] + "-" + str(i)
                                                  for i, c in
                                                  enumerate(CASES)])
def test_corrupted_artifact_fails(argv, edit):
    code, text = _cli(argv)
    assert oracles.check(argv, code, text) == []
    assert oracles.check(argv, code, _corrupt(text, edit))
    assert oracles.check(argv, 3, text)
    assert oracles.check(argv, code, text[:-10])


def test_corrupted_pass_counts_one_failure():
    job = workloads.Job("count.p1", "count.p1_s",
                        ("count", "--fan", "builtin:p1", "--bounds",
                         workloads.Scaled((100.0,))), "p1")
    argv = job.render(0)
    code, text = _cli(argv)
    corrupt = _corrupt(text, lambda d: d["rows"][0].update(N=0))
    good = {"jobs": [{"code": code, "artifact": text, "stderr": ""}]}
    bad = {"jobs": [{"code": code, "artifact": corrupt, "stderr": ""}]}
    plan = [(job, 0, argv)]
    assert run.check_passes(plan, [good, good])[:2] == (2, 0)
    assert run.check_passes(plan, [good, bad, good])[:2] == (3, 1)


def test_plan_is_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.plan(name, 7) == workloads.plan(name, 7)
    orders = {tuple(j.name for j, _p, _a in workloads.plan("count", s))
              for s in range(10)}
    assert len(orders) > 1
    for seed in range(10):
        argvs = {j.name: a for j, _p, a in workloads.plan("count", seed)}
        grid = argvs["count.p2"][argvs["count.p2"].index("--bounds") + 1]
        top = argvs["count.p2-threads2"][
            argvs["count.p2-threads2"].index("--bounds") + 1]
        assert top in grid.split(",")


def test_tracer_patches_every_binding_and_restores():
    originals = (manin_toric.count_N, cli.count_N,
                 manin_toric.counting.count_N, DirichletOracle.evaluate)
    with Tracer():
        patched = (manin_toric.count_N, cli.count_N,
                   manin_toric.counting.count_N, DirichletOracle.evaluate)
        for before, after in zip(originals, patched):
            assert after is not before and after.__wrapped__ is before
    assert (manin_toric.count_N, cli.count_N, manin_toric.counting.count_N,
            DirichletOracle.evaluate) == originals


def _timed_pass(jobs):
    t0 = time.perf_counter()
    for argv in jobs:
        assert _cli(argv)[0] == 0
    return time.perf_counter() - t0


def test_self_times_sum_to_wall_within_overhead():
    jobs = [["fibration", "zeta", "--n", "1", "--B", "60"],
            ["count", "--fan", "builtin:p2", "--bounds", "100,300"],
            ["poisson-check", "--fan", "builtin:p1", "--B0", "200",
             "--T", "200", "--tol", "1"]]
    untraced = _timed_pass(jobs)
    with Tracer() as tracer:
        wall = _timed_pass(jobs)
    rep = tracer.report()
    overhead = wall - untraced
    self_sum = sum(rep["modules"].values())
    assert set(rep["modules"]) >= {"cli", "counting", "fibration", "heights",
                                   "fourier", "primes"}
    assert 0 <= wall - self_sum <= max(overhead, 1e-3 * wall)
    assert rep["functions"]["cli.run"]["calls"] == len(jobs)
    assert rep["work"]["fibration.points"] > 0
    assert rep["work"]["counting.points"] > 0


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    with Tracer() as tracer:
        _cli(["fibration", "zeta", "--n", "1", "--B", "20"])
    report = {"wall_s": 1.0, "trace": tracer.report()}
    layers = {name: unit for name, (_v, unit)
              in run.layer_metrics(report).items()}
    layers.update(run.RUN_LEVEL_LAYERS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_worker_times_reference_loop_between_jobs():
    jobs = [["count", "--fan", "builtin:p1", "--bounds", "100"]] * 2
    _setup, report = run.Runner(time.perf_counter()).pass_(jobs, ["p1"])
    assert len(report["loops"]) == (len(jobs) + 1) * worker.LOOP_SAMPLES
    assert min(report["loops"]) > 0
    assert report["wall_s"] == pytest.approx(
        sum(job["seconds"] for job in report["jobs"]))
    # a host running twice as fast as the baseline machine doubles the time
    half = run.reference_loop.REFERENCE_S / 2
    assert run.at_reference_speed(2.0, {"loops": [half, half]}) \
        == pytest.approx(4.0)


def test_over_orders_weighs_every_order_equally():
    # orders 0 and 1 alternate; order 0 ran three times, order 1 twice
    assert run.over_orders([1.0, 3.0, 1.0, 3.0, 1.0], 2) == 2.0
    assert run.over_orders([1.0, 3.0], 4) == 2.0


def test_run_refuses_without_source(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(Path(run.ROOT) / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
