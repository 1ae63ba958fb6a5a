"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see the lines as they pass;
under default capture they still appear in failure output.

Criteria:
  1. full default-catalogue verification: zero failures, every check
     applicable to at least 5 pairs, under 60 s single-threaded
  2. exact fixture verdicts for five reference (ring, ideal) pairs
  3. the vertex-count identity holds on 100% of pairs
  4. graph-side complementation agrees with the two-case ring-side
     classification on all nonzero non-prime pairs; cases mutually exclusive
  5. five-way equivalence on radical pairs; complemented and uniquely
     complemented coincide on every applicable pair
  6. cross-module consistency (reduced / radical / regular) plus the full
     ring-axiom scan for every constructed ring
  7. byte-deterministic outputs and the exit-status contract

The golden tests pin the sha256 of the default-catalogue report, of the
report on ``perfbench/scale.cat`` (rings of order 512-4096) and of the
fault-injection report on ``perfbench/canary.cat``, the bytes that
``zdglab verify`` writes at every ``--jobs`` value. The default and canary
reports are checked at jobs 1, evaluated in this process, and at jobs 2,
evaluated in a process pool whose workers each start their own run memo.
The canary report is the only pinned one with failures, so it pins their
witnesses and their order. The report on ``catalogues/wide.cat`` is pinned
at jobs 1 and 2 too: its rings are the only committed ones whose class
graphs have more than 64 classes, so it is the only pinned report that
depends on the second 64-bit word of a packed class row.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from zdglab import (
    all_ideals,
    analyze_pair,
    build_ring,
    build_zn,
    default_catalogue,
    generate_ideal,
    is_radical,
    is_reduced,
    is_von_neumann_regular,
    parse_catalogue_text,
    quotient_ring,
    run_catalogue,
    validate_ring_axioms,
)
from zdglab.cli import main

from oracles import check_result, members, truth_table_cells

SINGLE_THREAD_BUDGET_SECONDS = 60.0
MIN_APPLICABLE_PAIRS = 5
# tool_version 0.1.0
DEFAULT_REPORT_SHA256 = "1b0a8e0aafd251c087c97173571e35b19b1add73aef0b8f71f7174e9f6a12714"
# holds only for the description "perfbench/scale.cat", which the report embeds
SCALE_REPORT_SHA256 = "d7122aa95593f6856edf7ffc962982c7211e3f37dfb0a72fa0dfb12f5195493c"
SCALE_CATALOGUE = Path(__file__).resolve().parents[1] / "perfbench" / "scale.cat"
# with --inject-fault, and only for the description "perfbench/canary.cat"
CANARY_REPORT_SHA256 = "fbeec8d9ef1a07d4362f59bbfdb1f5d5c4bed690acbd4bdd16bdf5bcfaedbe24"
CANARY_FAILURES = 18
CANARY_CATALOGUE = SCALE_CATALOGUE.with_name("canary.cat")
# only for the description "catalogues/wide.cat"
WIDE_REPORT_SHA256 = "6932a2e0354ad61b4533b72bd6d129606863a5e52da94273227d83c219c376f1"
WIDE_FAULT_FAILURES = 147
WIDE_CATALOGUE = SCALE_CATALOGUE.parents[1] / "catalogues" / "wide.cat"
# the truth-table cells each committed catalogue reaches (see
# ``oracles.truth_table_cells``); the scale pair (Zn:512, (2)) is counted
# twice, since the filters [2] and [6] generate one ideal
TRUTH_TABLE_CELLS = {
    "default": {
        "nonradical_complemented_iff_k2": {"FF": 196, "TT": 7},
        "complemented_transfer": {"FF": 203, "TT": 184},
        "classification_cases": {"FF": 196, "FT": 184, "TF": 7},
        "complemented_iff_uniquely_complemented": {"FF": 196, "TT": 953},
        "radical_equivalence_chain": {"TTTTT": 946},
    },
    "scale": {
        "nonradical_complemented_iff_k2": {"FF": 5},
        "complemented_transfer": {"FF": 5},
        "classification_cases": {"FF": 5},
        "complemented_iff_uniquely_complemented": {"FF": 5, "TT": 5},
        "radical_equivalence_chain": {"TTTTT": 5},
    },
    "wide": {
        "nonradical_complemented_iff_k2": {},
        "complemented_transfer": {"TT": 144},
        "classification_cases": {"FT": 144},
        "complemented_iff_uniquely_complemented": {"TT": 158},
        "radical_equivalence_chain": {"TTTTT": 158},
    },
}


def report_line(name: str, ok: bool, extra: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{extra}")


@pytest.fixture(scope="module")
def default_run():
    start = time.perf_counter()
    report = run_catalogue(default_catalogue(), jobs=1)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_full_catalogue(default_run):
    report, elapsed = default_run
    coverage = {c.check_name: c.pairs_applicable for c in report.checks}
    ok = (
        report.failures_total == 0
        and not report.catalogue["skipped"]
        and all(n >= MIN_APPLICABLE_PAIRS for n in coverage.values())
        and elapsed < SINGLE_THREAD_BUDGET_SECONDS
    )
    report_line(
        "1 full-catalogue run",
        ok,
        f" ({report.catalogue['pairs']} pairs, {report.failures_total} failures, {elapsed:.1f}s)",
    )
    assert report.failures_total == 0
    assert report.catalogue["skipped"] == []
    for name, applicable in coverage.items():
        assert applicable >= MIN_APPLICABLE_PAIRS, name
    assert elapsed < SINGLE_THREAD_BUDGET_SECONDS


def test_criterion_2_fixture_verdicts():
    def fixture(n, gens):
        ring = build_zn(n)
        return analyze_pair(ring, generate_ideal(ring, gens))

    a = fixture(8, [4])
    ok = (
        a.gi.is_complete() == (True, 2)
        and a.verdict.gi_complemented
        and a.verdict.gi_uniquely_complemented
    )
    b = fixture(16, [4])
    ok = ok and b.gi.is_complete() == (True, 4) and not b.verdict.gi_complemented
    c = fixture(12, [6])
    ok = (
        ok
        and c.gi.vertex_count == 6
        and c.gi.edge_count == 8
        and c.verdict.gi_complemented
        and c.verdict.gi_uniquely_complemented
    )
    d = fixture(24, [8])
    ok = ok and d.gi.vertex_count == 9 and not d.verdict.gi_complemented
    e = fixture(36, [12])
    ok = ok and e.gi.vertex_count == 21 and not e.verdict.gi_complemented
    report_line("2 fixture verdicts", ok)
    assert a.gi.is_complete() == (True, 2)
    assert a.verdict.gi_complemented and a.verdict.gi_uniquely_complemented
    assert b.gi.is_complete() == (True, 4)
    assert not b.verdict.gi_complemented
    assert c.gi.vertex_count == 6 and c.gi.edge_count == 8
    assert c.verdict.gi_complemented and c.verdict.gi_uniquely_complemented
    assert d.gi.vertex_count == 9 and not d.verdict.gi_complemented
    assert e.gi.vertex_count == 21 and not e.verdict.gi_complemented


def test_criterion_3_cardinality_identity(default_run):
    report, _ = default_run
    card = check_result(report, "cardinality_identity")
    recomputed = all(
        v.gi_vertex_count == len(v.ideal_members) * v.quotient_vertex_count
        for v in report.verdicts
    )
    ok = (
        card.pairs_applicable == card.pairs_tested == len(report.verdicts)
        and not card.failures
        and recomputed
    )
    report_line("3 cardinality identity", ok, f" ({card.pairs_applicable} pairs)")
    assert card.pairs_applicable == card.pairs_tested == len(report.verdicts)
    assert card.failures == []
    assert recomputed


def test_criterion_4_classification_agreement(default_run):
    report, _ = default_run
    scope = [v for v in report.verdicts if len(v.ideal_members) > 1 and not v.ideal_is_prime]
    agreement = True
    exclusive = True
    for v in report.verdicts:
        case1 = v.quotient_z_count == 2 and len(v.ideal_members) == 2
        case2 = v.quotient_graph_complemented and v.ideal_is_radical
        if case1 and case2:
            exclusive = False
        if v in scope and v.gi_complemented != (case1 or case2):
            agreement = False
    check = check_result(report, "classification_cases")
    ok = agreement and exclusive and not check.failures and check.pairs_applicable == len(scope)
    report_line("4 classification agreement", ok, f" ({len(scope)} scoped pairs)")
    assert agreement
    assert exclusive
    assert check.failures == []
    assert check.pairs_applicable == len(scope)


def test_criterion_5_equivalences(default_run):
    report, _ = default_run
    radical_ok = True
    for v in report.verdicts:
        if v.ideal_is_radical:
            flags = {
                v.gi_complemented,
                v.gi_uniquely_complemented,
                v.quotient_graph_complemented,
                v.quotient_graph_uniquely_complemented,
                v.quotient_vnr,
            }
            if len(flags) != 1:
                radical_ok = False
    # the complemented <-> uniquely-complemented clause applies to every
    # radical or nonzero ideal (primes included via the empty graph); zero
    # non-radical ideals sit outside the statement and do exhibit
    # complemented-but-not-uniquely graphs (e.g. the zero ideal of Z_4 x Z_2)
    moreover_scope = [v for v in report.verdicts if v.ideal_is_radical or len(v.ideal_members) > 1]
    moreover_ok = all(v.gi_complemented == v.gi_uniquely_complemented for v in moreover_scope)
    prime_pairs = [v for v in moreover_scope if v.ideal_is_prime]
    chain = check_result(report, "radical_equivalence_chain")
    iff = check_result(report, "complemented_iff_uniquely_complemented")
    ok = (
        radical_ok
        and moreover_ok
        and not chain.failures
        and not iff.failures
        and iff.pairs_applicable == len(moreover_scope)
        and len(prime_pairs) > 0
    )
    report_line(
        "5 equivalence chains",
        ok,
        f" ({chain.pairs_applicable} radical pairs, {iff.pairs_applicable} moreover pairs)",
    )
    assert radical_ok
    assert moreover_ok
    assert chain.failures == [] and iff.failures == []
    assert iff.pairs_applicable == len(moreover_scope)
    assert prime_pairs


def test_criterion_6_cross_module_consistency(default_run):
    report, _ = default_run
    verdict_ok = all(v.quotient_vnr == v.ideal_is_radical for v in report.verdicts)

    # independent sweep: rebuild every catalogue pair and cross-check the
    # reduced / radical / regular triangle, validating ring axioms for every
    # constructed ring along the way
    swept = 0
    for entry in default_catalogue():
        ring = build_ring(entry.spec)
        validate_ring_axioms(ring)
        for ideal in all_ideals(ring):
            if not ideal.is_proper:
                continue
            quotient, _ = quotient_ring(ring, ideal)
            flag = is_radical(ideal)
            assert is_reduced(quotient) == flag, (ring.spec, sorted(members(ideal)))
            assert is_von_neumann_regular(quotient) == flag, (ring.spec, sorted(members(ideal)))
            if not ideal.is_zero:
                validate_ring_axioms(quotient)
            swept += 1
    big = build_zn(512)
    validate_ring_axioms(big)
    ok = verdict_ok and swept == len(report.verdicts)
    report_line("6 cross-module consistency", ok, f" ({swept} pairs, axiom scans up to order 512)")
    assert verdict_ok
    assert swept == len(report.verdicts)


DETERMINISM_CATALOGUE = """\
Zn:8
Zn:12
Zn:16
Zn:24
Zn:30
Zn:36
prod(Zn:2,Zn:3)
prod(Zn:4,Zn:2)
prod(Zn:6,Zn:6)
polyq:2:0,0,1
polyq:3:1,0,1
quot(Zn:24;8)
"""


def test_criterion_7_determinism_and_exit_codes(tmp_path, capsys):
    cat = tmp_path / "catalogue.txt"
    cat.write_text(DETERMINISM_CATALOGUE)

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["verify", "--catalogue", str(cat), "--jobs", "1", "--quiet", "--out", str(r1)])
    code2 = main(["verify", "--catalogue", str(cat), "--jobs", "1", "--quiet", "--out", str(r2)])
    verify_identical = r1.read_bytes() == r2.read_bytes()

    g1, g2 = tmp_path / "g1.dot", tmp_path / "g2.dot"
    main(["graph", "Zn:12", "--ideal", "6", "--out", str(g1)])
    main(["graph", "Zn:12", "--ideal", "6", "--out", str(g2)])
    j1, j2 = tmp_path / "g1.json", tmp_path / "g2.json"
    main(["graph", "Zn:12", "--ideal", "6", "--format", "json", "--out", str(j1)])
    main(["graph", "Zn:12", "--ideal", "6", "--format", "json", "--out", str(j2)])
    graph_identical = g1.read_bytes() == g2.read_bytes() and j1.read_bytes() == j2.read_bytes()

    rf = tmp_path / "fault.json"
    fault_code = main(
        ["verify", "--catalogue", str(cat), "--jobs", "1", "--quiet", "--inject-fault", "--out", str(rf)]
    )
    fault_report = json.loads(rf.read_text())
    capsys.readouterr()

    ok = (
        code1 == 0
        and code2 == 0
        and verify_identical
        and graph_identical
        and fault_code == 1
        and fault_report["failures_total"] > 0
    )
    report_line("7 determinism and exit codes", ok)
    assert code1 == 0 and code2 == 0
    assert verify_identical
    assert graph_identical
    assert fault_code == 1
    assert fault_report["failures_total"] > 0


def sha256_of(report) -> str:
    return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


def test_default_report_golden_hash(default_run):
    report, _ = default_run
    assert sha256_of(report) == DEFAULT_REPORT_SHA256


def test_default_report_golden_hash_at_two_jobs():
    assert sha256_of(run_catalogue(default_catalogue(), jobs=2)) == DEFAULT_REPORT_SHA256


@pytest.fixture(scope="module")
def scale_report():
    entries = parse_catalogue_text(SCALE_CATALOGUE.read_text(encoding="utf-8"))
    return run_catalogue(entries, description="perfbench/scale.cat", jobs=1)


def test_scale_report_golden_hash(scale_report):
    report = scale_report
    assert report.failures_total == 0
    assert sha256_of(report) == SCALE_REPORT_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_canary_fault_report_golden_hash(jobs):
    entries = parse_catalogue_text(CANARY_CATALOGUE.read_text(encoding="utf-8"))
    report = run_catalogue(entries, description="perfbench/canary.cat", jobs=jobs, inject_fault=True)
    assert report.failures_total == CANARY_FAILURES
    assert sha256_of(report) == CANARY_REPORT_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_wide_report_golden_hash(jobs):
    entries = parse_catalogue_text(WIDE_CATALOGUE.read_text(encoding="utf-8"))
    report = run_catalogue(entries, description="catalogues/wide.cat", jobs=jobs)
    assert report.catalogue["pairs"] == 158 and report.failures_total == 0
    assert sha256_of(report) == WIDE_REPORT_SHA256


def test_wide_fault_report_has_failures():
    entries = parse_catalogue_text(WIDE_CATALOGUE.read_text(encoding="utf-8"))
    report = run_catalogue(entries, description="catalogues/wide.cat", jobs=1, inject_fault=True)
    assert report.failures_total == WIDE_FAULT_FAILURES


def test_truth_table_cells_of_the_committed_reports(default_run, scale_report):
    wide = run_catalogue(parse_catalogue_text(WIDE_CATALOGUE.read_text(encoding="utf-8")), jobs=1)
    for name, report in (("default", default_run[0]), ("scale", scale_report), ("wide", wide)):
        cells = truth_table_cells(report.verdicts)
        assert {check: dict(counts) for check, counts in cells.items()} == TRUTH_TABLE_CELLS[name], name
        for check, counts in cells.items():
            assert sum(counts.values()) == check_result(report, check).pairs_applicable, (name, check)
