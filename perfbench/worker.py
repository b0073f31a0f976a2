"""One benchmark pass in a fresh interpreter.

Takes a JSON spec as its one argument: ``{"jobs": [argv, ...], "fans":
[...], "trace": bool}``.  It imports the package and builds the fans
(the set-up a user pays on every CLI start), prints ``READY``, then runs
every job in process through ``manin_toric.cli.run``, capturing each
artifact, and prints one JSON report line.  The reference loop
(``reference_loop.py``) is timed after ``READY`` and after every job,
outside the job timings, so the report says how fast the host ran during
this pass.  With ``"trace": true`` the jobs run under the layer tracer.

Run from the repository root with ``src`` on ``PYTHONPATH``; ``run.py``
starts it.
"""

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback


LOOP_SAMPLES = 2   # reference-loop samples after READY and after each job


def loop_samples(reference_loop):
    """Time the reference loop on a clean heap.  The collection frees
    the last job's garbage, and with the collector off the loop's own
    allocations cannot start one, so the program's heap does not reach
    into the loop time."""
    gc.collect()
    gc.disable()
    try:
        return [reference_loop.sample() for _ in range(LOOP_SAMPLES)]
    finally:
        gc.enable()


def main():
    spec = json.loads(sys.argv[1])
    import manin_toric.cli as cli
    from manin_toric.latticefan import builtin_fan
    for name in spec["fans"]:
        builtin_fan(name)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer   # perfbench/ is the script directory
        tracer = Tracer().install()
    print("READY", flush=True)

    import reference_loop   # after READY: not part of the set-up time
    reference_loop.sample()   # untimed: a process's first run is ~20 % slower
    loops = loop_samples(reference_loop)
    jobs = []
    for argv in spec["jobs"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except Exception:
                # an escaped exception fails this job, not the pass
                code = None
                traceback.print_exc()
        jobs.append({"seconds": time.perf_counter() - start, "code": code,
                     "artifact": out.getvalue(),
                     "stderr": err.getvalue()[-2000:]})
        loops += loop_samples(reference_loop)
    if tracer is not None:
        tracer.uninstall()
    report = {
        "jobs": jobs,
        "wall_s": sum(job["seconds"] for job in jobs),
        "loops": loops,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.report() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
