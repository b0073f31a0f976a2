"""Record the sha256 of every artifact the benchmark can produce.

Runs each job of each workload at every jitter offset once, checks the
artifacts with the oracles, and writes ``reference_sha256.json``, which
``run.py`` compares against to report ``cli.artifacts_identical``.  Run it
from the repository root at the commit whose artifacts are the reference:

    python3 perfbench/reference.py <commit-sha>
"""

import json
import sys
import time

import oracles
import workloads
from run import HERE, SRC, Runner, _sha256


def main(commit: str) -> int:
    sys.path.insert(0, str(SRC))   # the hirzebruch-1 oracle imports it
    table = {}
    bad = 0
    for jobs in workloads.WORKLOADS.values():
        variants = [(job, pct, job.render(pct)) for job in jobs
                    for pct in workloads.JITTER_PCT]
        fans = workloads.fans_of(job for job, _p, _a in variants)
        _setup, report = Runner(time.perf_counter()).pass_(
            [argv for _job, _pct, argv in variants], fans)
        for (job, pct, argv), res in zip(variants, report["jobs"]):
            problems = oracles.check(argv, res["code"], res["artifact"])
            if problems:
                bad += 1
                print(f"{job.name}@{pct}: {'; '.join(problems)}",
                      file=sys.stderr)
            table[f"{job.name}@{pct}"] = _sha256(res["artifact"])
    (HERE / "reference_sha256.json").write_text(json.dumps(
        {"commit": commit, "artifacts": dict(sorted(table.items()))},
        indent=1) + "\n")
    print(f"{len(table)} artifacts, {bad} failing checks")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
