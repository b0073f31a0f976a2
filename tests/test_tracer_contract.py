"""The work counters the benchmark's layer trace reads off the fibration
cross-check: it counts the points that enumerate_bounded yields and the
calls of heights.exact_height, so the direct cross-check must keep
reaching the walk and the heights through those two public functions.
No timing is asserted."""

import importlib.util
import json
import sys
from pathlib import Path

from manin_toric import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_cross_check_feeds_the_point_and_height_counters(capsys):
    tracer = load_tracer().Tracer()
    with tracer:
        code = cli.run(["fibration", "zeta", "--n", "1", "--B", "60"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    check = doc["cross_check"]
    assert check["performed"] and check["lam_direct"] == [1, 1, 1, 1]
    points = check["direct_points"]
    assert points > 0
    # every signed point is one enumerated item, and each run of 2^2 sign
    # copies gets one exact height, as lambda is the cut rho
    assert tracer.work["counting.points"] == points
    assert tracer.calls[("heights", "exact_height")] * 4 == points
    # the tracer put every function back
    assert cli.run.__module__ == "manin_toric.cli"
    assert not hasattr(cli.run, "__wrapped__")
