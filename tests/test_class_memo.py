"""The class memo of ``run_catalogue`` against the class graph computed
afresh on every graph, and the memo's scope."""

from pathlib import Path

import numpy as np

from zdglab import (
    SimpleGraph,
    all_ideals,
    analyze_pair,
    build_ring,
    default_catalogue,
    gamma,
    gamma_ideal,
    generate_ideal,
    parse_catalogue_text,
    quotient_ring,
    run_catalogue,
    verifier,
)
from zdglab import graphs as graphs_module
from zdglab.cli import main
from zdglab.verifier import _drop_top_vertex, check_orthogonality_lifting

SCALE_CATALOGUE = Path(__file__).resolve().parents[1] / "perfbench" / "scale.cat"


def _pair_graphs(entries):
    """Gamma_I(R) and Gamma(R/I) of every pair ``verify`` analyzes, and the
    graph made from each nonempty one by dropping its top vertex."""
    for entry in entries:
        r = build_ring(entry.spec)
        if entry.ideal_filters is None:
            ideals = [i for i in all_ideals(r) if i.is_proper]
        else:
            ideals = [generate_ideal(r, gens) for gens in entry.ideal_filters]
        for ideal in ideals:
            for g in (gamma_ideal(r, ideal), gamma(quotient_ring(r, ideal)[0])):
                yield g
                if g.vertex_count:
                    yield _drop_top_vertex(g)


def _decided(g):
    return g.is_complemented(), g.is_uniquely_complemented(), g.orth


def _assert_memo_matches_fresh(graphs):
    """Decide every graph with one shared memo, then each afresh without
    one; returns the memo."""
    verifier._set_memos(True)
    try:
        memoised = [_decided(g) for g in graphs]
        memo = graphs_module._class_memo
    finally:
        verifier._set_memos(False)
    assert graphs_module._class_memo is None
    for g, (complemented, unique, orth) in zip(graphs, memoised):
        fresh = SimpleGraph(g.vertices, (), g.adj, g.name)
        assert (complemented, unique) == (fresh.is_complemented(), fresh.is_uniquely_complemented()), g.name
        assert np.array_equal(orth, fresh.orth), g.name
    return memo


def test_memoised_classes_match_fresh_ones_on_the_default_graphs():
    graphs = list(_pair_graphs(default_catalogue()))
    memo = _assert_memo_matches_fresh(graphs)
    assert len(graphs) == 2520 + 1288  # 1232 of the 2520 graphs are empty
    assert 0 < len(memo) < len(graphs) // 3
    for key, (first, labels, lone) in memo.items():
        assert [type(k) for k in key] == [int, bytes]
        assert len(labels) == key[0] and lone.shape == (len(first), len(first))
        assert not (first.flags.writeable or labels.flags.writeable or lone.flags.writeable)


def test_memoised_classes_match_fresh_ones_on_the_scale_graphs():
    entries = parse_catalogue_text(SCALE_CATALOGUE.read_text(encoding="utf-8"))
    graphs = list(_pair_graphs(entries))
    assert max(g.vertex_count for g in graphs) == 2047  # Gamma(Z_4096)
    _assert_memo_matches_fresh(graphs)


def run_watching_memo(entries):
    """(the class memo at each entry's progress call, its size then)."""
    memos, sizes = [], []

    def progress(_line):
        memos.append(graphs_module._class_memo)
        sizes.append(len(graphs_module._class_memo))

    run_catalogue(entries, jobs=1, progress=progress)
    return memos, sizes


def test_each_run_starts_with_an_empty_class_memo():
    entries = ["Zn:12", "Zn:8", "prod(Zn:2,Zn:4)", "Zn:24"]
    memos1, sizes1 = run_watching_memo(entries)
    assert graphs_module._class_memo is None
    memos2, sizes2 = run_watching_memo(entries)
    assert graphs_module._class_memo is None
    assert sizes1 == sizes2 and sizes1[0] > 0
    assert all(m is memos1[0] for m in memos1) and memos1[0] is not memos2[0]


def test_the_empty_graph_is_decided_once_per_run():
    # Z_2, Z_3 and Z_5 are fields: each pair's two graphs are empty
    memos, sizes = run_watching_memo(["Zn:2", "Zn:3", "Zn:5"])
    assert sizes == [1, 1, 1] and list(memos[-1]) == [(0, b"")]


def test_check_and_analyze_pair_outside_a_run_leave_the_memo_untouched(capsys):
    run_catalogue(["Zn:12", "Zn:8"], jobs=1)
    assert graphs_module._class_memo is None
    for spec, gens in (("Zn:12", [6]), ("Zn:8", [4]), ("Zn:30", [5])):
        ring = build_ring(spec)
        analyze_pair(ring, generate_ideal(ring, gens))
    assert main(["check", "Zn:12", "--ideal", "6"]) == 0
    capsys.readouterr()
    assert graphs_module._class_memo is None


def _without_edge(analysis, i, j):
    """The pair with the edge between positions i and j of Gamma_I(R) removed."""
    g = analysis.gi
    adj = g.adj.copy()
    adj[i, j] = adj[j, i] = False
    analysis.gi = SimpleGraph(g.vertices, (), adj, g.name)
    return analysis


def test_equal_matrices_with_other_keys_give_witnesses_in_their_own_keys():
    # Gamma_(6)(Z_12) and Gamma(Z_15) have the same adjacency matrix on the
    # vertices (2, 3, 4, 8, 9, 10) and (3, 5, 6, 9, 10, 12); removing the
    # edge between the first two breaks orthogonality lifting in both
    z12, z15 = build_ring("Zn:12"), build_ring("Zn:15")
    pairs = ((z12, [6]), (z15, []))
    verifier._set_memos(True)
    try:
        memoised = [_without_edge(analyze_pair(r, generate_ideal(r, gens)), 0, 1) for r, gens in pairs]
        witnesses = [check_orthogonality_lifting(a) for a in memoised]
        memo = graphs_module._class_memo
    finally:
        verifier._set_memos(False)
    a12, a15 = memoised
    assert np.array_equal(a12.gi.adj, a15.gi.adj) and a12.gi.vertices != a15.gi.vertices
    assert a15.gi._classes is a12.gi._classes  # the second graph is a memo hit
    # Gamma_(6)(Z_12), which Gamma(Z_15) shares, Gamma(Z_12/(6)) and the edited matrix
    assert len(memo) == 3
    assert witnesses == [
        (True, {"x": 2, "y": 3, "gi_orthogonal": False, "quotient_orthogonal": True}),
        (True, {"x": 3, "y": 5, "gi_orthogonal": False, "quotient_orthogonal": True}),
    ]
    fresh = [_without_edge(analyze_pair(r, generate_ideal(r, gens)), 0, 1) for r, gens in pairs]
    assert [check_orthogonality_lifting(a) for a in fresh] == witnesses
