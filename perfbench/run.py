"""Benchmark of the manin-toric CLI routes: counting, zeta and analytic.

Run from the repository root:

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0

Each pass starts a fresh interpreter (``worker.py``), which imports the
package, builds the workload's fans and runs the workload's jobs in
process through ``manin_toric.cli.run``.  Passes repeat until the time
budget is spent, at least one pass per job order; the run reports
medians over passes, taken per job order for the pass time.  Each pass's
times are first rescaled to the baseline machine's typical speed by the
reference loop (``reference_loop.py``) that the worker times between
jobs; the table shows the raw medians too.  Every artifact is
checked by ``oracles.py`` after the passes, outside the timed region; a
job execution fails when its exit code or any check fails, or when its
artifact differs from the same job's artifact in another pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced passes, including the tracing overhead (traced minus untraced
pass wall time).  A readable table goes to stdout first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import oracles  # noqa: E402  (perfbench/ is the script directory)
import reference_loop  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5      # set-up time is the median of at least this many
MIN_ROUNDS = 3         # passes per run whatever the budget, and at least
                       # one per job order (pairs: 2)
RUN_LIMIT_S = 165.0    # a run stops starting work past this

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
MODULES = ("bounds", "cli", "cones", "counting", "fibration", "fourier",
           "heights", "latticefan", "primes", "ratlinalg", "tauberian",
           "toric")
# modules with work on every workload; the others are idle on at least one,
# so their busy time is reported as a share of the traced pass only
BUSY_EVERYWHERE = ("cli", "counting", "latticefan", "primes")
CALL_COUNTS = ("counting.count_points", "counting.zeta_partial",
               "heights.exact_height", "ratlinalg.solve_fraction",
               "primes.primes_up_to", "fourier.zeta_line",
               "tauberian.perron_phi_k")
FUNCTION_SHARES = ("primes.divisor_count_table", "tauberian.evaluate",
                   "fibration.direct_zeta_partial")
WORK_COUNTS = ("counting.points", "primes.sieved", "fourier.zeta_line.terms",
               "fibration.points")
# per-layer numbers taken over the whole run rather than one traced pass
RUN_LEVEL_LAYERS = {"trace.overhead_s": "s", "cli.artifact_bytes": "count",
                    "cli.artifacts_identical": "count"}


def _median(values):
    return statistics.median(values) if values else 0.0


def over_orders(values, n_orders):
    """Mean over job orders of the median of the passes that ran each
    order; pass k ran order k mod ``n_orders``.  A run's passes do not
    split evenly over the orders, and one order's pass can take 20 %
    longer than another's (zeta), so a plain median would jump with the
    number of passes."""
    groups = [values[k::n_orders] for k in range(min(n_orders, len(values)))]
    return statistics.mean(statistics.median(g) for g in groups)


class Failure(RuntimeError):
    """A worker that died, timed out or broke the protocol."""


class Runner:
    """Starts worker passes and keeps the run inside its time limit."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ)
        self.env.pop("MANIN_TORIC_THREADS", None)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path
                                             else "")

    def pass_(self, jobs, fans, trace=False):
        """Run one pass; returns (set-up seconds, worker report)."""
        spec = json.dumps({"jobs": jobs, "fans": fans, "trace": trace})
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), spec], cwd=ROOT,
            env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            text=True, start_new_session=True)
        timed_out = threading.Event()

        def kill_group():
            # the group holds the worker and any pool processes it forked
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        def stop():
            timed_out.set()
            kill_group()

        timer = threading.Timer(max(left, 1.0), stop)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                kill_group()
                proc.wait()
            proc.stdout.close()
        if timed_out.is_set():
            raise Failure("pass exceeded the run time limit")
        if ready.strip() != "READY" or proc.returncode != 0:
            raise Failure(f"worker exited with code {proc.returncode}")
        return setup, json.loads(out.strip().splitlines()[-1])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_passes(plan, reports):
    """(attempted, failed, problems) over every job of every pass."""
    attempted = failed = 0
    problems = []
    first = {}
    for report in reports:
        for (job, _pct, argv), res in zip(plan, report["jobs"]):
            attempted += 1
            found = oracles.check(argv, res["code"], res["artifact"])
            digest = _sha256(res["artifact"])
            if first.setdefault(job.name, digest) != digest:
                found.append("artifact differs from an earlier pass")
            if found:
                failed += 1
                problems.append(f"{job.name}: {'; '.join(found)}"
                                + (f" [{res['stderr'].strip()[-300:]}]"
                                   if res["stderr"].strip() else ""))
    return attempted, failed, problems


def reference_matches(plan, report) -> list:
    """(job id, sha256, byte-identical to the seed commit's artifact) for
    every job of one pass."""
    try:
        table = json.loads(
            (HERE / "reference_sha256.json").read_text())["artifacts"]
    except (OSError, ValueError, KeyError):
        table = {}
    out = []
    for (job, pct, _argv), res in zip(plan, report["jobs"]):
        digest = _sha256(res["artifact"])
        key = f"{job.name}@{pct}"
        out.append((key, digest, table.get(key) == digest))
    return out


def at_reference_speed(seconds, report) -> float:
    """``seconds`` measured in a pass, rescaled to the baseline machine's
    typical speed by the reference-loop times of that pass.  Host drift
    slows the loop and the program alike, so it cancels."""
    return (seconds * reference_loop.REFERENCE_S
            / statistics.mean(report["loops"]))


def job_metrics(plan, reports) -> dict:
    """Median seconds per job metric (jobs sharing a metric are summed)."""
    per_pass = []
    for report in reports:
        sums = {}
        for (job, _pct, _argv), res in zip(plan, report["jobs"]):
            sums[job.metric] = sums.get(job.metric, 0.0) + res["seconds"]
        per_pass.append(sums)
    names = sorted({job.metric for job, _p, _a in plan})
    return {m: _median([s[m] for s in per_pass]) for m in names}


def layer_metrics(report) -> dict:
    """Per-layer numbers of one traced pass, as {name: (value, unit)}."""
    tr = report["trace"]
    wall = report["wall_s"]
    funcs = tr["functions"]
    work = tr["work"]
    mods = tr["modules"]

    def fn(name, field):
        return funcs.get(name, {}).get(field, 0)

    out = {"trace.wall_s": (wall, "s")}
    for m in MODULES:
        out[f"{m}.self_pct"] = (100.0 * mods.get(m, 0.0) / wall, "%")
    for m in BUSY_EVERYWHERE:
        out[f"{m}.self_s"] = (mods.get(m, 0.0), "s")
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (fn(name, "calls"), "count")
    for name in FUNCTION_SHARES:
        out[f"{name}.self_pct"] = (100.0 * fn(name, "self_s") / wall, "%")
    for name in WORK_COUNTS:
        out[name] = (work.get(name, 0), "count")
    points = work.get("counting.points", 0)
    out["counting.us_per_point"] = (
        1e6 * mods.get("counting", 0.0) / points if points else 0.0, "us")
    calls = fn("heights.exact_height", "calls")
    out["heights.exact_height.calls_per_s"] = (
        calls / fn("heights.exact_height", "incl_s") if calls else 0.0, "1/s")
    terms = work.get("fourier.zeta_line.terms", 0)
    busy = fn("fourier.zeta_line", "self_s")
    out["fourier.zeta_line.terms_per_us"] = (
        terms / (1e6 * busy) if busy else 0.0, "1/us")
    spans = tr["count_spans"]
    ratios = [s[3] / p[3] for p in spans if p[2] > 1 for s in spans
              if s[2] == 1 and s[0] == p[0] and s[1] == p[1]]
    out["counting.parallel_speedup"] = (_median(ratios), "x")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "manin_toric" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC}; run from "
                         "a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))   # the hirzebruch-1 oracle imports it

    plan = workloads.plan(args.workload, args.seed)
    jobs = [argv for _job, _pct, argv in plan]
    fans = workloads.fans_of(job for job, _p, _a in plan)
    runner = Runner(started)
    untraced, traced = [], []
    setups = []   # (set-up seconds, report of the same pass)

    def timed_pass(pass_jobs, shift=0, trace=False):
        # the pass runs the jobs rotated by ``shift``; its report lists
        # them in plan order again
        setup, report = runner.pass_(pass_jobs[shift:] + pass_jobs[:shift],
                                     fans, trace)
        report["jobs"] = report["jobs"][-shift:] + report["jobs"][:-shift]
        setups.append((setup, report))
        return report

    try:
        runner.pass_([], fans)   # warm the file cache and bytecode
        rounds = []
        while True:
            if len(rounds) >= (2 if args.trace
                               else max(MIN_ROUNDS, len(jobs))):
                elapsed = time.perf_counter() - started
                if elapsed + _median(rounds) > args.seconds:
                    break
            t0 = time.perf_counter()
            # a job's time depends on the jobs run before it in the same
            # process (by up to 30 % on zeta), so pass k runs the plan
            # rotated by k: every job runs in every position equally often
            shift = len(untraced) % len(jobs)
            untraced.append(timed_pass(jobs, shift))
            if args.trace:
                traced.append(timed_pass(jobs, shift, trace=True))
            rounds.append(time.perf_counter() - t0)
        while len(setups) < SETUP_SAMPLES:
            timed_pass([])
    except Failure as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    attempted, failed, problems = check_passes(plan, untraced + traced)
    for line in problems[:20]:
        sys.stderr.write(f"perfbench: FAILED {line}\n")

    first = untraced[0]
    raw = {"setup_s": _median([s for s, _r in setups]),
           "wall_s": over_orders([r["wall_s"] for r in untraced], len(jobs))}
    e2e = {
        "setup_s": _median([at_reference_speed(s, r) for s, r in setups]),
        "wall_s": over_orders([at_reference_speed(r["wall_s"], r)
                               for r in untraced], len(jobs)),
        # peak memory depends on the job order by up to 5 %: the largest
        # over the orders, all of which ran
        "peak_rss_mb": max(r["peak_rss_mb"] for r in untraced),
    }
    jobs_s = job_metrics(plan, untraced)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"passes={len(untraced)} traced={len(traced)} "
          f"setups={len(setups)} jobs/pass={len(plan)}")
    for name, value in e2e.items():
        print(f"  {name:<24} {value:12.4f} {END_TO_END_UNITS[name]}")
    for name, value in raw.items():
        print(f"  {name + ' (raw)':<24} {value:12.4f} s")
    loops = [t for r in untraced for t in r["loops"]]
    print(f"  {'reference loop':<24} {_median(loops):12.4f} s "
          f"(baseline machine {reference_loop.REFERENCE_S} s)")
    print(f"  {'failed_frac':<24} {failed / attempted:12.4f} "
          f"({failed}/{attempted})")
    for name, value in jobs_s.items():
        print(f"  {name:<24} {value:12.4f} s")
    matches = reference_matches(plan, first)
    for key, digest, same in matches:
        print(f"  artifact {key:<24} sha256 {digest[:16]} "
              f"{'identical to' if same else 'differs from'} the seed commit")
    identical = sum(same for _k, _d, same in matches)
    artifact_bytes = sum(len(r["artifact"].encode()) for r in first["jobs"])
    print(f"  artifacts identical to the seed commit: {identical}/{len(plan)}"
          f", {artifact_bytes} bytes")

    if args.trace:
        per_pass = [layer_metrics(r) for r in traced]
        # exact counts repeat from pass to pass (checked below); times and
        # rates are medians
        layers = {name: (v if unit == "count" else
                         _median([p[name][0] for p in per_pass]), unit)
                  for name, (v, unit) in per_pass[0].items()}
        # both sides at the reference speed, so host drift between the
        # traced and the untraced passes cancels
        overhead = over_orders([at_reference_speed(r["wall_s"], r)
                                for r in traced], len(jobs)) - e2e["wall_s"]
        run_level = {"trace.overhead_s": overhead,
                     "cli.artifact_bytes": artifact_bytes,
                     "cli.artifacts_identical": identical}
        layers.update((k, (v, RUN_LEVEL_LAYERS[k]))
                      for k, v in run_level.items())
        self_sum = _median([sum(r["trace"]["modules"].values())
                            for r in traced])
        print(f"  traced: module self times sum to {self_sum:.4f} s of "
              f"{layers['trace.wall_s'][0]:.4f} s wall, overhead "
              f"{layers['trace.overhead_s'][0]:+.4f} s")
        counts = [(r["trace"]["work"], {k: v["calls"] for k, v in
                                        r["trace"]["functions"].items()})
                  for r in traced]
        print("  traced: work and call counts "
              + ("repeat exactly" if counts.count(counts[0]) == len(counts)
                 else "DIFFER") + " across traced passes")
        for name, (value, unit) in sorted(layers.items()):
            print(f"  {name:<40} {value:16.6g} {unit}")
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in sorted(layers.items())}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
