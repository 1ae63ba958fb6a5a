"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q

The traced-run tests start the worker three times on the default catalogue,
about 15 s in all.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracer import Tracer, layer_metrics  # noqa: E402
from worker import corrupt  # noqa: E402
from workloads import workloads  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
COUNTS = ("graphs.vertices", "graphs.edges", "ideals.enumerated", "verifier.pairs")


def run_worker(mode: str, out: Path) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", "catalogue-parallel",
           "--seed", "1", "--jobs", "1", "--mode", mode, "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, check=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    return json.loads(lines[-1])


@pytest.fixture(scope="module")
def catalogue_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    runs = {name: (run_worker(mode, tmp / f"{name}.json"), tmp / f"{name}.json")
            for name, mode in (("plain", "timed"), ("traced1", "traced"), ("traced2", "traced"))}
    return runs


def test_traced_runs_repeat_their_counts(catalogue_runs):
    first = catalogue_runs["traced1"][0]["layers"]
    second = catalogue_runs["traced2"][0]["layers"]
    for name in COUNTS:
        assert first[name] == second[name], name
        assert first[name] > 0, name


def test_traced_pairs_match_report(catalogue_runs):
    result, out = catalogue_runs["traced1"]
    report = json.loads(out.read_text(encoding="utf-8"))
    assert result["layers"]["verifier.pairs"] == report["catalogue"]["pairs"] == 1260


def test_tracing_leaves_report_bytes_unchanged(catalogue_runs):
    plain = catalogue_runs["plain"][1].read_bytes()
    for name in ("traced1", "traced2"):
        result, out = catalogue_runs[name]
        assert out.read_bytes() == plain
        assert result["failed"] == 0


def test_traced_run_covers_the_timed_phase(catalogue_runs):
    layers = catalogue_runs["traced1"][0]["layers"]
    assert layers["trace.coverage_frac"] >= 0.9
    assert all(value is not None for value in layers.values())


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["specs.build_ring", 0.0, 10.0, -1],
        ["rings.build", 2.0, 5.0, 0],
        ["rings.build", 6.0, 7.0, 0],
        ["ideals.generate", 12.0, 14.0, -1],
    ]
    out = layer_metrics(tracer, 0.0, 20.0)
    assert out["specs.build_ring_s"] == pytest.approx(6.0)
    assert out["rings.build_s"] == pytest.approx(4.0)
    assert out["rings.build_calls"] == 2
    assert out["trace.coverage_frac"] == pytest.approx(0.6)
    # spans before the timed phase count towards layers but not coverage
    assert layer_metrics(tracer, 11.0, 21.0)["trace.coverage_frac"] == pytest.approx(0.2)


def test_missing_function_reads_null():
    script = (
        "import json, zdglab, tracer\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t, tracer.TARGETS + (('rings.vnr', 'zdglab.rings', 'no_such_function'),"
        " ('graphs.gamma', 'zdglab.graphs', 'NoClass.method')))\n"
        "print(json.dumps(tracer.layer_metrics(t, 0.0, 1.0)))\n"
    )
    env = {**ENV, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["rings.vnr_s"] is None
    assert out["graphs.gamma_s"] is None
    assert out["graphs.built"] is None and out["graphs.edges"] is None
    assert out["rings.zero_divisors_s"] == 0.0


@pytest.mark.parametrize("spec", ["Zn:12", "prod(Zn:2,Zn:6)", "polyq:2:1,1,1", "quot(Zn:16;8)"])
def test_every_corruption_is_caught(spec):
    from zdglab.errors import RingConsistencyError
    from zdglab.rings import validate_ring_axioms
    from zdglab.specs import build_ring

    ring = build_ring(spec)
    rng = random.Random(7)
    for _ in range(40):
        bad = corrupt(ring, rng)
        changed = (bad.add_table != ring.add_table) | (bad.mul_table != ring.mul_table)
        cells = np.argwhere(changed)
        assert 1 <= len(cells) <= 2
        assert {tuple(c) for c in cells} == {tuple(c[::-1]) for c in cells}
        assert not ({ring.zero, ring.one} & set(cells.ravel().tolist()))
        with pytest.raises(RingConsistencyError):
            validate_ring_axioms(bad)


def test_manifest_matches_benchmark():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    manifest = json.loads((BENCH / "manifest.json").read_text(encoding="utf-8"))
    listed = [w["name"] for w in declared["workloads"]]
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert sorted(listed) == sorted(workloads()) == sorted(manifest["workloads"])
    assert set(manifest["should_move"]) == per_layer
    for moves in manifest["should_move"].values():
        for move in moves:
            assert move["metric"] in end_to_end
            assert set(move["workloads"]) <= set(listed)
    assert set(manifest["should_not_move"]) <= per_layer
    for workload in listed:
        assert set(manifest["baseline"]["values"][workload]) == end_to_end | per_layer


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "axioms", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
