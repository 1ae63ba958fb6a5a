"""The benchmark's workloads and the oracles their outputs are checked against.

Shared by ``run.py`` (the entry point) and ``worker.py`` (one measured iteration).
Paths are relative to the checkout root, which is every process's working
directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# sha256 of `zdglab verify` on the default catalogue at tool_version 0.1.0,
# identical at every --jobs value.
DEFAULT_SHA256 = "1b0a8e0aafd251c087c97173571e35b19b1add73aef0b8f71f7174e9f6a12714"

# The report embeds the --catalogue argument as catalogue.description, so the
# hash below holds only for exactly this argument string. Recorded at
# tool_version 0.1.0; identical at --jobs 1 and --jobs 2.
SCALE_CATALOGUE = "perfbench/scale.cat"
SCALE_SHA256 = "d7122aa95593f6856edf7ffc962982c7211e3f37dfb0a72fa0dfb12f5195493c"

# `verify --inject-fault` on this catalogue must exit 1 with failures.
CANARY_CATALOGUE = "perfbench/canary.cat"

# Orders 256-384: large enough that the O(n^3) axiom scan dominates, small
# enough that one iteration stays under ten seconds.
AXIOM_RINGS = (
    "Zn:256",
    "prod(Zn:16,Zn:16)",
    "polyq:2:1,0,1,1,1,0,0,0,1",
    "quot(Zn:512;256)",
    "Zn:384",
)


def parallel_jobs() -> int:
    """Worker count of the parallel workload: every usable processor, at least
    two so that the process-pool path always runs."""
    return max(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    name: str
    catalogue: str | None  # --catalogue argument of a verify workload; None for axioms
    jobs: int
    ops: int  # operations per iteration: (ring, ideal) pairs, or tables validated
    sha256: str | None  # expected report hash of a verify workload


def workloads() -> dict[str, Workload]:
    return {
        w.name: w
        for w in (
            Workload("catalogue-parallel", "default", parallel_jobs(), 1260, DEFAULT_SHA256),
            Workload("scale", SCALE_CATALOGUE, 1, 12, SCALE_SHA256),
            Workload("axioms", None, 1, 2 * len(AXIOM_RINGS), None),
        )
    }
