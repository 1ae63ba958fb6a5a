"""The run memo of ``run_catalogue`` (``verifier._run_memo``): its scope,
what it keeps, and its verdicts against results computed afresh.

The memo holds the quotient side of a pair, keyed on the zero, one and
exact multiplication table of R/I. Each run starts a new memo; that nothing
outside a run keeps one is tested in ``test_class_memo`` and
``test_quotient_memo``.
"""

import contextlib
import gc
import weakref
from pathlib import Path

import numpy as np

from zdglab import (
    CatalogueEntry,
    FiniteRing,
    SimpleGraph,
    analyze_pair,
    build_ring,
    build_zn,
    default_catalogue,
    generate_ideal,
    parse_catalogue_text,
    quotient_ring,
    run_catalogue,
    verifier,
)
from zdglab.verifier import check_orthogonality_lifting

from oracles import unmemoised_verdict

SCALE_CATALOGUE = Path(__file__).resolve().parents[1] / "perfbench" / "scale.cat"


def _scale_entries():
    return parse_catalogue_text(SCALE_CATALOGUE.read_text(encoding="utf-8"))


def _quotient_key(q):
    return (q.zero, q.one, q.mul_table.tobytes())


def run_watching_memo(entries):
    """(report, the memo at each entry's progress call, its size then)."""
    memos, sizes = [], []

    def progress(_line):
        memos.append(verifier._run_memo)
        sizes.append(len(verifier._run_memo))

    report = run_catalogue(entries, jobs=1, progress=progress)
    return report, memos, sizes


@contextlib.contextmanager
def memo_active():
    """An active run memo for the body of a ``with`` block."""
    verifier._set_run_memo(True)
    try:
        yield verifier._run_memo
    finally:
        verifier._set_run_memo(False)


# --- memoised results against fresh ones -----------------------------------


def _assert_verdicts_match_oracle(report):
    built = {}
    for v in report.verdicts:
        ring = built.get(v.ring_spec) or built.setdefault(v.ring_spec, build_ring(v.ring_spec))
        assert unmemoised_verdict(ring, generate_ideal(ring, v.ideal_members)) == v, (v.ring_spec, v.ideal_members)


def _assert_memo_shapes(memo):
    for key, (gq, vnr, z_count) in memo.items():
        assert [type(k) for k in key] == [int, int, bytes]
        assert isinstance(gq, SimpleGraph) and type(vnr) is bool and type(z_count) is int


def test_memoised_verdicts_match_the_unmemoised_oracle_on_the_default_catalogue():
    report, memos, _ = run_watching_memo(default_catalogue())
    assert len(report.verdicts) == 1260
    _assert_verdicts_match_oracle(report)
    memo = memos[-1]
    assert all(m is memo for m in memos)
    nonzero_pairs = sum(len(v.ideal_members) > 1 for v in report.verdicts)
    # the 904 pairs with a nonzero ideal have 119 distinct quotient keys
    assert (nonzero_pairs, len(memo)) == (904, 119)
    _assert_memo_shapes(memo)
    # Z_8/(4) and F_2[x]/(x^3)/(x^2), that is Z_4 and F_2[x]/(x^2), share a
    # multiplication table on 0..3 but not an addition table: one entry
    z4, f2 = (build_ring(spec) for spec in ("quot(Zn:8;4)", "quot(polyq:2:0,0,0,1;4)"))
    assert not np.array_equal(z4.add_table, f2.add_table)
    assert _quotient_key(z4) == _quotient_key(f2) and _quotient_key(z4) in memo


def test_memoised_verdicts_match_the_unmemoised_oracle_on_the_scale_catalogue():
    report, memos, _ = run_watching_memo(_scale_entries())
    assert len(report.verdicts) == 12
    _assert_verdicts_match_oracle(report)
    _assert_memo_shapes(memos[-1])


# --- scope -------------------------------------------------------------------


def test_each_run_starts_with_an_empty_memo():
    entries = ["Zn:12", "Zn:8", "prod(Zn:2,Zn:4)", "Zn:24"]
    _, memos1, sizes1 = run_watching_memo(entries)
    assert verifier._run_memo is None
    _, memos2, sizes2 = run_watching_memo(entries)
    assert verifier._run_memo is None
    assert sizes1 == sizes2 and sizes1[0] > 0
    assert all(m is memos1[0] for m in memos1) and memos1[0] is not memos2[0]


def test_the_zero_ideal_never_keeps_its_quotient_side():
    zero_only = [CatalogueEntry("Zn:8", ((),)), CatalogueEntry("prod(Zn:2,Zn:4)", ((),))]
    _, memos, _ = run_watching_memo(zero_only)
    assert not memos[-1]
    _, memos, _ = run_watching_memo([CatalogueEntry("Zn:8", ((), (4,)))])
    assert len(memos[-1]) == 1


# --- what a hit gives --------------------------------------------------------


def test_the_quotient_side_reads_no_addition_table():
    # Z_60/(12) is Z_12, and a copy of it whose addition table has every row
    # but zero's rotated has the same key, so it must have the same side
    r60 = build_zn(60)
    q, _ = quotient_ring(r60, generate_ideal(r60, [12]))
    add = q.add_table.copy()
    others = np.arange(q.order) != q.zero
    add[others] = np.roll(add[others], 1, axis=1)
    forged = FiniteRing(add, q.mul_table, [str(x) for x in range(q.order)], "forged", zero=q.zero, one=q.one)
    assert not np.array_equal(forged.add_table, q.add_table) and _quotient_key(forged) == _quotient_key(q)
    (g, vnr, z_count), (fg, f_vnr, f_z_count) = verifier._quotient_side(q), verifier._quotient_side(forged)
    assert g.vertices == fg.vertices == (2, 3, 4, 6, 8, 9, 10)
    assert np.array_equal(g.adj, fg.adj)
    assert (vnr, z_count) == (f_vnr, f_z_count) == (False, 8)


def test_a_hit_returns_the_quotient_graph_of_the_miss():
    # Z_12/(2) and Z_8/(2) have the same tables: the second pair is a hit
    z12, z8 = build_zn(12), build_zn(8)
    with memo_active() as memo:
        miss = analyze_pair(z12, generate_ideal(z12, [2]))
        hit = analyze_pair(z8, generate_ideal(z8, [2]))
        assert len(memo) == 1
    assert hit.gq is miss.gq
    assert hit.verdict == unmemoised_verdict(z8, generate_ideal(z8, [2]))
    assert hit.verdict.ring_spec == "Zn:8" and hit.verdict.ideal_members == (0, 2, 4, 6)
    assert hit.quotient is not miss.quotient and hit.quotient.spec == "quot(Zn:8;2)"


def test_a_memoised_quotient_graph_does_not_keep_its_quotient_ring():
    z12 = build_zn(12)
    with memo_active() as memo:
        analysis = analyze_pair(z12, generate_ideal(z12, [4]))
        quotient, gq = weakref.ref(analysis.quotient), analysis.gq
        del analysis
        gc.collect()
        assert quotient() is None
        ((kept, _, _),) = memo.values()
    assert kept is gq and gq.vertices == (2,)


def _without_edge(analysis, i, j):
    """The pair with the edge between positions i and j of Gamma_I(R) removed."""
    g = analysis.gi
    adj = g.adj.copy()
    adj[i, j] = adj[j, i] = False
    analysis.gi = SimpleGraph(g.vertices, adj)
    return analysis


def test_equal_matrices_with_other_keys_give_witnesses_in_their_own_keys():
    # Gamma_(6)(Z_12) and Gamma(Z_15) have the same adjacency matrix on the
    # vertices (2, 3, 4, 8, 9, 10) and (3, 5, 6, 9, 10, 12); removing the
    # edge between the first two breaks orthogonality lifting in both
    z12, z15 = build_ring("Zn:12"), build_ring("Zn:15")
    pairs = ((z12, [6]), (z15, []))
    with memo_active():
        memoised = [_without_edge(analyze_pair(r, generate_ideal(r, gens)), 0, 1) for r, gens in pairs]
        witnesses = [check_orthogonality_lifting(a) for a in memoised]
    a12, a15 = memoised
    assert np.array_equal(a12.gi.adj, a15.gi.adj) and a12.gi.vertices != a15.gi.vertices
    assert witnesses == [
        (True, {"x": 2, "y": 3, "gi_orthogonal": False, "quotient_orthogonal": True}),
        (True, {"x": 3, "y": 5, "gi_orthogonal": False, "quotient_orthogonal": True}),
    ]
    fresh = [_without_edge(analyze_pair(r, generate_ideal(r, gens)), 0, 1) for r, gens in pairs]
    assert [check_orthogonality_lifting(a) for a in fresh] == witnesses
