"""One measured iteration of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N \\
        --jobs N --mode setup|timed|traced --out PATH

Run from the checkout root. The worker imports zdglab, prepares the
workload's inputs and prints ``ready``; the time until that line appears is
the iteration's set-up time. Unless the mode is ``setup`` it then runs the
timed phase, checks the outputs and prints one JSON line of measurements.
Mode ``traced`` also records per-layer spans (see ``tracer.py``) and writes
them to PATH.spans.json. A verify workload writes its report to PATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer, install, layer_metrics
from workloads import AXIOM_RINGS, Workload, workloads


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return max(own.ru_maxrss, kids.ru_maxrss) / 1024  # ru_maxrss is in KiB on Linux


def corrupt(ring, rng: random.Random):
    """A copy of ``ring`` with one cell of one table changed, mirrored so the
    table stays symmetric. The rows and columns of zero and one are left
    intact, so the constructor accepts the copy and only the axiom scan can
    reject it. Every such change breaks associativity or distributivity."""
    from zdglab.rings import FiniteRing

    add, mul = ring.add_table.copy(), ring.mul_table.copy()
    table = rng.choice((add, mul))
    free = [x for x in range(ring.order) if x not in (ring.zero, ring.one)]
    i, j = rng.choice(free), rng.choice(free)
    old = int(table[i, j])
    table[i, j] = table[j, i] = rng.choice([v for v in range(ring.order) if v != old])
    return FiniteRing(add, mul, ring.element_names, f"{ring.spec}~corrupt({i},{j})", ring.zero, ring.one)


def prepare_axioms(seed: int) -> list:
    """(ring, is_valid) cases: each ring of AXIOM_RINGS and a seeded corruption of it."""
    from zdglab import specs

    rng = random.Random(seed)
    rings = [specs.build_ring(spec) for spec in AXIOM_RINGS]
    return [(r, True) for r in rings] + [(corrupt(r, rng), False) for r in rings]


def run_axioms(cases: list) -> dict:
    from zdglab import rings
    from zdglab.errors import RingConsistencyError

    failed = caught = 0
    for ring, valid in cases:
        try:
            rings.validate_ring_axioms(ring)
            ok = valid
        except RingConsistencyError:
            ok = not valid
            caught += ok
        except Exception:  # an operation that errors fails; the run goes on
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"gate: {ring.spec} was {'rejected' if valid else 'accepted'}", file=sys.stderr)
        failed += not ok
    corrupted = sum(not valid for _, valid in cases)
    return {"ops": len(cases), "failed": failed, "caught": caught, "corrupted": corrupted}


def run_verify(wl: Workload, jobs: int, out: str) -> dict:
    from zdglab import cli

    argv = ["verify", "--catalogue", wl.catalogue, "--jobs", str(jobs), "--quiet", "--out", out]
    try:
        return {"exit_code": cli.main(argv)}
    except Exception:
        traceback.print_exc()
        return {"exit_code": None}


def check_report(wl: Workload, outcome: dict, out: str) -> dict:
    """Gate of a verify iteration: exit code 0, the expected report hash, no
    skipped entry and the expected pair count. A failed gate fails every pair."""
    try:
        with open(out, "rb") as fh:
            data = fh.read()
        catalogue = json.loads(data)["catalogue"]
    except (OSError, ValueError, KeyError) as e:
        print(f"unreadable report {out}: {e}", file=sys.stderr)
        return {"ops": wl.ops, "failed": wl.ops}
    sha = hashlib.sha256(data).hexdigest()
    problems = []
    if outcome["exit_code"] != 0:
        problems.append(f"exit code {outcome['exit_code']}")
    if sha != wl.sha256:
        problems.append(f"report sha256 {sha}, expected {wl.sha256}")
    if catalogue["skipped"]:
        problems.append(f"skipped entries {catalogue['skipped']}")
    if catalogue["pairs"] != wl.ops:
        problems.append(f"{catalogue['pairs']} pairs, expected {wl.ops}")
    for p in problems:
        print(f"gate: {p}", file=sys.stderr)
    return {"ops": wl.ops, "failed": wl.ops if problems else 0, "sha256": sha, "pairs": catalogue["pairs"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    wl = workloads()[args.workload]

    import zdglab  # noqa: F401  -- set-up includes the package import
    if wl.catalogue is not None:
        import zdglab.cli  # noqa: F401
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        install(tracer)
    cases = prepare_axioms(args.seed) if wl.catalogue is None else None
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    Path(args.out).unlink(missing_ok=True)  # a crashed run must not pass on an old report
    cpu0 = cpu_seconds()
    start = perf_counter()
    if cases is not None:
        outcome = run_axioms(cases)
    else:
        outcome = run_verify(wl, args.jobs, args.out)
    end = perf_counter()
    result = {"wall_s": end - start, "cpu_s": cpu_seconds() - cpu0, "peak_rss_mb": peak_rss_mb()}
    if cases is not None:
        result.update(outcome)
    else:
        result.update(check_report(wl, outcome, args.out))
    if tracer is not None:
        layers = layer_metrics(tracer, start, end)
        corrupted = result.get("corrupted", 0)
        layers["rings.corrupt_caught_frac"] = result["caught"] / corrupted if corrupted else 0.0
        result["layers"] = layers
        tracer.write_spans(args.out + ".spans.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
