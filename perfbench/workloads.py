"""Benchmark workloads: CLI jobs, seeded jitter and job order.

A job is one ``manin-toric`` command line.  The seed picks, for every
jitter key, one of ``JITTER_PCT`` percent offsets applied to each height
bound B, Poisson base bound B0 and Perron cut-off X of the jobs sharing
that key, and then the order in which the jobs run.  The program sees only the resulting argv.
Offsets come from a short fixed list, so every artifact the benchmark can
produce has a reference hash recorded at the seed commit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JITTER_PCT = (-2, -1, 0, 1, 2)


@dataclass(frozen=True)
class Scaled:
    """Comma-separated numbers scaled by the job's jitter."""

    values: tuple

    def render(self, pct: int) -> str:
        return ",".join(repr(v * (100 + pct) / 100) for v in self.values)


@dataclass(frozen=True)
class Job:
    name: str        # unique job id
    metric: str      # row of the run's table the job's time adds to
    argv: tuple      # CLI argv; Scaled entries are rendered per variant
    jitter_key: str  # jobs with the same key share one jitter draw

    def render(self, pct: int) -> list:
        return [a.render(pct) if isinstance(a, Scaled) else a
                for a in self.argv]


def _count(fan, bounds, *extra, name=None, key=None):
    return Job(name or f"count.{fan}", f"{name or f'count.{fan}'}_s",
               ("count", "--fan", f"builtin:{fan}", "--bounds",
                Scaled(bounds)) + extra, key or fan)


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "count": (
        _count("p1", (1e5, 3e5, 7e5)),
        _count("p2", (1e2, 1e3, 2.5e3)),
        _count("p1xp1", (1e2, 5e2, 2.5e3)),
        _count("hirzebruch-1", (1e2, 3e2, 1e3)),
        _count("p3", (1e2, 3e2, 1e3)),
        _count("p2", (2.5e3,), "--threads", "2", name="count.p2-threads2",
               key="p2"),
    ),
    "zeta": (
        Job("poisson.p1xp1", "poisson.p1xp1_s",
            ("poisson-check", "--fan", "builtin:p1xp1", "--B0",
             Scaled((700.0,)), "--T", "400"), "poisson.p1xp1"),
    ) + tuple(
        Job(f"fibration.zeta.n{n}", "fibration.zeta_s",
            ("fibration", "zeta", "--n", str(n), "--B", Scaled((150.0,))),
            f"fibration.n{n}")
        for n in (0, 1, 2)),
    "analytic": (
        Job("poisson.p1", "poisson.p1_s",
            ("poisson-check", "--fan", "builtin:p1", "--B0",
             Scaled((1000.0,)), "--T", "600"), "poisson.p1"),
        Job("tauber.zeta2", "tauber.zeta2_s",
            ("tauber", "--oracle", "zeta2", "--X", Scaled((1e5,)), "--k", "3",
             "--T", "150"), "tauber.zeta2"),
        Job("tauber.p1", "tauber.p1_s",
            ("tauber", "--oracle", "p1", "--X", Scaled((2e3,)), "--k", "3",
             "--T", "150"), "tauber.p1"),
        Job("constants.p2", "constants.p2_s",
            ("constants", "--fan", "builtin:p2"), "constants.p2"),
        Job("bounds-sweep", "bounds-sweep_s", ("bounds-sweep",),
            "bounds-sweep"),
    ),
}


def fans_of(jobs) -> list:
    """Builtin fan names the jobs use, in first-use order."""
    out = []
    for job in jobs:
        for a in job.argv:
            if isinstance(a, str) and a.startswith("builtin:"):
                name = a.split(":", 1)[1]
                if name not in out:
                    out.append(name)
    return out


def plan(workload: str, seed: int) -> list:
    """The seeded job list: (job, jitter percent, argv) in run order."""
    jobs = WORKLOADS[workload]
    rng = random.Random(seed)
    keys = sorted({job.jitter_key for job in jobs})
    pct = {k: rng.choice(JITTER_PCT) for k in keys}
    out = [(job, pct[job.jitter_key], job.render(pct[job.jitter_key]))
           for job in jobs]
    rng.shuffle(out)
    return out
