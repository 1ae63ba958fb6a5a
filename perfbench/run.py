"""zdglab benchmark: runs one workload for a fixed time, checks every output
and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/zdglab``. Workloads are
listed in ``workloads.py`` and ``BENCHMARK.json``. Each iteration runs in a
fresh interpreter (``worker.py``), one after another: a closed loop with one
client. Another iteration starts while it is expected, from the mean so far,
to end within ``--seconds``; at least one always runs.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are reported,
each the median over the run's iterations. With ``--trace 1`` each round runs
the workload untraced, untraced at one job if its own job count differs, and
traced at one job in process; the per-layer metrics are medians over the
rounds. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Files the run leaves
go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import COUNT_METRICS
from workloads import CANARY_CATALOGUE, Workload, workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
# Set-up-only iterations take this share of a timed run, interleaved with the
# timed iterations so that their samples span the whole run.
SETUP_SHARE = 0.2
SETUP_SAMPLES = 20  # at least this many set-up samples per run
STARTUP_SAMPLES = 5
STARTED = perf_counter()
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever its workers do


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def time_left() -> float:
    return max(1.0, RUN_LIMIT_S - (perf_counter() - STARTED))


def run_worker(wl: Workload, seed: int, mode: str, jobs: int) -> tuple[float, dict | None]:
    """One iteration: (set-up seconds, measurements or None if the worker crashed)."""
    out = STATE / f"{wl.name}.{mode}.jobs{jobs}.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", wl.name, "--seed", str(seed),
        "--jobs", str(jobs), "--mode", mode, "--out", str(out),
    ]
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        bufsize=0,  # unbuffered, so reading the ready line cannot swallow the result line
        start_new_session=True,  # so a timeout can stop its pool workers too
    )
    setup_s = None
    try:
        if not select.select([proc.stdout], [], [], time_left())[0]:
            raise subprocess.TimeoutExpired(cmd, time_left())
        first = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest, err = (data.decode() for data in proc.communicate(timeout=time_left()))
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if setup_s is None:
            raise BenchError(f"{wl.name}: worker set-up timed out")
        print(f"{wl.name}: {mode} iteration timed out", file=sys.stderr)
        return setup_s, None
    if first.strip() != b"ready":
        raise BenchError(f"{wl.name}: worker failed during set-up:\n{err}")
    if mode == "setup":
        return setup_s, None
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{wl.name}: {mode} iteration crashed:\n{err}", file=sys.stderr)
        return setup_s, None
    result = json.loads(lines[-1])
    if result["failed"]:
        print(f"{wl.name}: {mode} iteration failed its gate:\n{err}", file=sys.stderr)
    return setup_s, result


def run_cli(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "zdglab.cli", *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=time_left(),
    )
    return perf_counter() - start, proc


def canary_holds() -> bool:
    """Untimed: `verify --inject-fault` on a small catalogue must exit 1 and
    report failures, or the checks could pass anything."""
    out = STATE / "canary.json"
    _, proc = run_cli(["verify", "--catalogue", CANARY_CATALOGUE, "--inject-fault",
                       "--jobs", "1", "--quiet", "--out", str(out)])
    try:
        failures = json.loads(out.read_text(encoding="utf-8"))["failures_total"]
    except (OSError, ValueError, KeyError):
        failures = None
    ok = proc.returncode == 1 and isinstance(failures, int) and failures > 0
    print(f"canary: exit {proc.returncode}, failures_total {failures}: {'ok' if ok else 'FAILED'}")
    return ok


def crashed(wl: Workload) -> dict:
    """The sample of an iteration that produced no measurements: every operation failed."""
    return {"ops": wl.ops, "failed": wl.ops}


def median_of(results: list[dict], key: str):
    values = [r[key] for r in results]
    if any(v is None for v in values):
        return None
    return statistics.median(values), len(values)


def room_for_another(begin: float, done: int, seconds: float) -> bool:
    elapsed = perf_counter() - begin
    return done == 0 or elapsed + elapsed / done <= seconds


def timed_run(wl: Workload, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    setups, samples = [], []
    begin = perf_counter()
    while room_for_another(begin, len(samples), seconds):
        setup_s, result = run_worker(wl, seed, "timed", wl.jobs)
        setups.append(setup_s)
        samples.append(result or crashed(wl))
        while sum(setups) < SETUP_SHARE * (perf_counter() - begin):
            setups.append(run_worker(wl, seed, "setup", wl.jobs)[0])
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(wl, seed, "setup", wl.jobs)[0])
    timed = [r for r in samples if "wall_s" in r]
    if not timed:
        raise BenchError(f"{wl.name}: no iteration finished")
    for r in timed:
        r["ops_per_s"] = r["ops"] / r["wall_s"]
    metrics = {"setup_s": (statistics.median(setups), len(setups))}
    for key in ("wall_s", "ops_per_s", "cpu_s", "peak_rss_mb"):
        metrics[key] = median_of(timed, key)
    return metrics, samples


def traced_run(wl: Workload, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    base, serial, traced, samples = [], [], [], []
    begin = perf_counter()
    rounds = 0
    while room_for_another(begin, rounds, seconds):
        rounds += 1
        round_ = [run_worker(wl, seed, "timed", wl.jobs)[1]]
        if wl.jobs != 1:
            round_.append(run_worker(wl, seed, "timed", 1)[1])
        round_.append(run_worker(wl, seed, "traced", 1)[1])
        samples += [r or crashed(wl) for r in round_]
        if None in round_:
            continue
        base.append(round_[0])
        serial.append(round_[-2])
        traced.append(round_[-1])
    if not traced:
        raise BenchError(f"{wl.name}: no traced round finished")

    layers = [r["layers"] for r in traced]
    metrics = {name: median_of(layers, name) for name in layers[0]}
    for name in COUNT_METRICS:
        values = {layer[name] for layer in layers}
        if len(values) > 1:  # the program is not deterministic: every traced operation fails
            print(f"{name} differs between traced rounds: {sorted(values)}", file=sys.stderr)
            for r in traced:
                r["failed"] = r["ops"]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    serial_wall = statistics.median(r["wall_s"] for r in serial)
    base_wall = statistics.median(r["wall_s"] for r in base)
    metrics["trace.overhead_frac"] = (traced_wall / serial_wall - 1, len(traced))
    entry_sum = median_of(layers, "verifier.entry_sum_s")
    if entry_sum is not None:
        entry_sum = (entry_sum[0] / (wl.jobs * base_wall), len(traced))
    metrics["verifier.pool_efficiency"] = entry_sum
    startups = []
    for _ in range(STARTUP_SAMPLES):
        elapsed, proc = run_cli(["--version"])
        if proc.returncode != 0:
            raise BenchError(f"zdglab --version failed:\n{proc.stderr}")
        startups.append(elapsed)
    metrics["cli.startup_s"] = (statistics.median(startups), len(startups))
    return metrics, samples


def load_declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="zdglab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads()))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "zdglab" / "__init__.py").is_file():
        print(f"error: no zdglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads()[args.workload]
    try:
        declared = load_declared(bool(args.trace))
        STATE.mkdir(exist_ok=True)
        canary_ok = canary_holds()
        run = traced_run if args.trace else timed_run
        measured, samples = run(wl, args.seed, args.seconds)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(r["ops"] for r in samples)
    failed = attempted if not canary_ok else sum(r["failed"] for r in samples)
    print(f"workload {wl.name}: jobs {wl.jobs}, seed {args.seed}, {len(samples)} iterations, "
          f"{failed}/{attempted} operations failed")
    metrics = {}
    for name, unit in declared.items():
        value, n = measured.get(name) or (None, 0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<52} {'null' if value is None else f'{value:.6g}':>12} {unit:<6} n={n}")
    # reported by the result line's failed / attempted, so it is not a declared metric
    print(f"  {'ops_failed_frac':<52} {failed / attempted:>12.6g} {'ratio':<6} n={attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
