"""The quotient memo of ``run_catalogue`` against the quotient side
computed afresh on every pair, and the memo's scope."""

from pathlib import Path

import numpy as np

from zdglab import (
    CatalogueEntry,
    analyze_pair,
    build_ring,
    build_zn,
    default_catalogue,
    generate_ideal,
    parse_catalogue_text,
    run_catalogue,
    verifier,
)

from oracles import unmemoised_verdict

SCALE_CATALOGUE = Path(__file__).resolve().parents[1] / "perfbench" / "scale.cat"


def run_watching_memo(entries, **kwargs):
    """(report, the memo of each entry's progress call, its size then)."""
    memos, sizes = [], []

    def progress(_line):
        memos.append(verifier._quotient_memo)
        sizes.append(len(verifier._quotient_memo))

    report = run_catalogue(entries, jobs=1, progress=progress, **kwargs)
    return report, memos, sizes


def assert_verdicts_match_oracle(report):
    rings = {}
    for v in report.verdicts:
        ring = rings.get(v.ring_spec) or rings.setdefault(v.ring_spec, build_ring(v.ring_spec))
        ideal = generate_ideal(ring, v.ideal_members)
        assert unmemoised_verdict(ring, ideal) == v, (v.ring_spec, v.ideal_members)


def assert_scalar_memo(memo):
    for key, value in memo.items():
        assert [type(k) for k in key] == [int, int, bytes, bytes]
        assert type(value) is tuple and [type(x) for x in value] == [int, bool, bool, bool, int]


def test_memoised_verdicts_match_the_unmemoised_oracle_on_the_default_catalogue():
    report, memos, _ = run_watching_memo(default_catalogue())
    assert len(report.verdicts) == 1260
    assert_verdicts_match_oracle(report)
    memo = memos[-1]
    assert all(m is memo for m in memos)
    nonzero_pairs = sum(len(v.ideal_members) > 1 for v in report.verdicts)
    # the 904 pairs with a nonzero ideal have 120 distinct quotients
    assert (nonzero_pairs, len(memo)) == (904, 120)
    assert_scalar_memo(memo)


def test_memoised_verdicts_match_the_unmemoised_oracle_on_the_scale_catalogue():
    entries = parse_catalogue_text(SCALE_CATALOGUE.read_text(encoding="utf-8"))
    report, memos, _ = run_watching_memo(entries)
    assert len(report.verdicts) == 12
    assert_verdicts_match_oracle(report)
    assert_scalar_memo(memos[-1])


def test_each_run_starts_with_an_empty_memo():
    entries = ["Zn:12", "Zn:8", "prod(Zn:2,Zn:4)", "Zn:24"]
    _, memos1, sizes1 = run_watching_memo(entries)
    assert verifier._quotient_memo is None
    _, memos2, sizes2 = run_watching_memo(entries)
    assert verifier._quotient_memo is None
    assert sizes1 == sizes2 and sizes1[0] > 0
    assert memos1[0] is not memos2[0]


def test_analyze_pair_outside_run_catalogue_leaves_the_memo_untouched():
    run_catalogue(["Zn:12", "Zn:8"], jobs=1)
    before = verifier._quotient_memo
    snapshot = None if before is None else dict(before)
    for spec, gens in (("Zn:12", [6]), ("Zn:8", [4]), ("Zn:30", [5])):
        ring = build_ring(spec)
        analyze_pair(ring, generate_ideal(ring, gens))
    after = verifier._quotient_memo
    assert after is before and (after is None or after == snapshot)
    assert before is None  # no memo outlives run_catalogue


def test_the_zero_ideal_never_uses_the_memo():
    zero_only = [CatalogueEntry("Zn:8", ((),)), CatalogueEntry("prod(Zn:2,Zn:4)", ((),))]
    assert run_watching_memo(zero_only)[2] == [0, 0]
    assert run_watching_memo([CatalogueEntry("Zn:8", ((), (4,)))])[2] == [1]


def test_a_hit_keeps_the_rings_own_side_and_builds_the_quotient_graph_on_first_read():
    # Z_12/(2) and Z_8/(2) have the same tables: the second pair is a hit
    z12, z8 = build_zn(12), build_zn(8)
    verifier._set_memos(True)
    try:
        miss = analyze_pair(z12, generate_ideal(z12, [2]))
        hit = analyze_pair(z8, generate_ideal(z8, [2]))
        assert len(verifier._quotient_memo) == 1
    finally:
        verifier._set_memos(False)
    assert miss._gq is not None and hit._gq is None
    assert hit.verdict == unmemoised_verdict(z8, generate_ideal(z8, [2]))
    assert hit.verdict.ring_spec == "Zn:8" and hit.verdict.ideal_members == (0, 2, 4, 6)
    assert hit.gq.vertices == miss.gq.vertices and np.array_equal(hit.gq.adj, miss.gq.adj)
