"""Run-to-run spread of the end-to-end metrics, and agreement with another checkout.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] [--against DIR]

Runs the benchmark once per seed 1-10 on each workload in turn, one run at a
time, for BENCHMARK.json's ``run_seconds``. For each metric it prints the
median of the runs, their quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median beside the metric's bound. A spread within the bound
passes; the benchmark is steady when every spread is below a third of it.

With ``--against DIR``, every run here is paired with the same run in the
checkout DIR, with DIR's own BENCHMARK.json command, the side that goes first
alternating from seed to seed, so that a drift of the host's speed hits both
sets alike. It then also prints DIR's medians and how much worse this
checkout's median is, as a share of DIR's; more than the bound fails.
Pointing DIR at a copy of the same commit measures how well two sets of runs
agree.

Exits 1 if a run is incorrect or fails, a spread exceeds its bound, or a
median is worse than DIR's by more than the bound. The last line is a JSON
object {workload: {metric: median}} of this checkout, the form of the
baseline in ``manifest.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(checkout: Path, workload: str, seed: int) -> dict | None:
    """Metrics of one run, or None if it failed or its output was incorrect."""
    declared = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    cmd = [*declared["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(declared["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not result or not result["correct"]:
        print(f"{checkout} {workload} seed {seed}: failed\n{proc.stderr}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """median, q1, q3 and (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--against", type=Path, help="another checkout whose runs interleave with these")
    args = ap.parse_args(argv)
    checkouts = [ROOT] + ([args.against.resolve()] if args.against else [])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = {(c, w): [] for c in checkouts for w in args.workload}
    ok = True
    for workload in args.workload:
        for seed in SEEDS:
            for checkout in checkouts[::-1] if seed % 2 == 0 else checkouts:
                metrics = run_once(checkout, workload, seed)
                ok &= metrics is not None
                if metrics is not None:
                    runs[checkout, workload].append(metrics)

    medians: dict[str, dict[str, float]] = {}
    for workload in args.workload:
        medians[workload] = {}
        print(f"{workload}: {len(runs[ROOT, workload])} runs")
        for m in declared["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r[name] for r in runs[c, workload]] for c in checkouts]
            if any(len(values) < 2 for values in sets):
                ok = False
                continue
            med, q1, q3, spread = summary(sets[0])
            medians[workload][name] = med
            verdict = "steady" if spread < bound / 3 else "ok" if spread <= bound else "WIDE"
            ok &= spread <= bound
            line = (f"  {name:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                    f"spread {spread:.4f} bound {bound} {verdict}")
            if args.against:
                other, *_, other_spread = summary(sets[1])
                worse = (med / other - 1) if m["better"] == "lower" else (other / med - 1)
                ok &= other_spread <= bound and worse <= bound
                line += (f" | against: median {other:<12.6g} spread {other_spread:.4f} "
                         f"worse by {worse:+.4f} {'ok' if worse <= bound else 'WORSE'}")
            print(line)
    print(json.dumps(medians))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
