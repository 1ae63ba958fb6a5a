"""Zero-divisor graphs and the complemented / uniquely-complemented predicates.

Graph fixtures over Z_n are cross-checked against the brute-force oracle
in ``oracles.py`` and frozen as literals; the class-graph predicates and
the ``orth`` gathered from them are checked against the dense product
``oracles.dense_orth`` and the per-class product ``oracles.per_class_orth``
that they replaced.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zdglab import (
    ImproperIdealError,
    SimpleGraph,
    all_ideals,
    analyze_pair,
    build_ring,
    build_zn,
    default_catalogue,
    direct_product,
    gamma,
    gamma_ideal,
    generate_ideal,
    parse_catalogue_text,
    quotient_ring,
)
from zdglab.rings import row_blocks
from zdglab.verifier import _drop_top_vertex

from oracles import (
    adj_from_edges,
    dense_orth,
    dense_uniquely_complemented,
    edge_keys,
    graph_complemented,
    graph_from_edges,
    graph_orthogonal,
    graph_similar,
    graph_uniquely_complemented,
    is_connected,
    per_class_orth,
    unpacked_row_classes,
    zn_gamma_ideal,
)

SCALE_CATALOGUE = Path(__file__).resolve().parents[1] / "perfbench" / "scale.cat"


def row_keys(g, matrix, v):
    """The vertex keys selected by the row of key ``v`` in a vertex x vertex
    boolean ``matrix`` of ``g`` (``g.adj``: neighbors, ``g.orth``: complements)."""
    return tuple(g.vertices[k] for k in np.flatnonzero(matrix[g.vertices.index(v)]))


def orthogonal(g, a, b):
    return bool(g.orth[g.vertices.index(a), g.vertices.index(b)])


def similar(g, a, b):
    return np.array_equal(g.adj[g.vertices.index(a)], g.adj[g.vertices.index(b)])


def test_gamma_z6_is_a_path():
    verts, edges = zn_gamma_ideal(6, [])
    assert verts == [2, 3, 4] and edges == {(2, 3), (3, 4)}
    g = gamma(build_zn(6))
    assert g.vertices == (2, 3, 4)
    assert edge_keys(g) == [(2, 3), (3, 4)]
    assert row_keys(g, g.adj, 3) == (2, 4)
    assert is_connected(g) == (True, 2)
    assert g.is_complemented()


def test_gamma_z4_is_single_vertex():
    g = gamma(build_zn(4))
    assert g.vertices == (2,)
    assert g.edges() == []
    assert g.is_complete() == (True, 1)
    assert not g.is_complemented()
    assert not g.is_uniquely_complemented()
    assert row_keys(g, g.adj, 2) == ()


def test_gamma_of_a_field_is_empty():
    g = gamma(build_zn(7))
    assert g.vertices == ()
    assert g.is_complemented()
    assert g.is_uniquely_complemented()
    assert is_connected(g) == (True, 0)
    assert g.is_complete() == (True, 0)


def test_gamma_ideal_z8_by_4_is_k2():
    verts, edges = zn_gamma_ideal(8, [4])
    assert verts == [2, 6] and edges == {(2, 6)}
    r = build_zn(8)
    g = gamma_ideal(r, generate_ideal(r, [4]))
    assert g.vertices == (2, 6)
    assert edge_keys(g) == [(2, 6)]
    assert g.is_complete() == (True, 2)
    assert g.is_complemented() and g.is_uniquely_complemented()


def test_gamma_ideal_z12_by_6():
    verts, edges = zn_gamma_ideal(12, [6])
    assert verts == [2, 3, 4, 8, 9, 10]
    assert edges == {(2, 3), (2, 9), (3, 4), (3, 8), (3, 10), (4, 9), (8, 9), (9, 10)}
    r = build_zn(12)
    g = gamma_ideal(r, generate_ideal(r, [6]))
    assert g.vertices == tuple(verts)
    assert set(edge_keys(g)) == edges
    assert g.vertex_count == 6 and g.edge_count == 8
    assert g.is_complemented() and g.is_uniquely_complemented()
    assert is_connected(g)[0] and is_connected(g)[1] <= 3
    # orthogonality and similarity spot checks
    assert orthogonal(g, 2, 3) and orthogonal(g, 3, 2)
    assert similar(g, 2, 8)
    assert not similar(g, 2, 3)
    assert row_keys(g, g.orth, 3) == (2, 4, 8, 10)


def test_gamma_ideal_z16_by_4_is_k4_not_complemented():
    verts, edges = zn_gamma_ideal(16, [4])
    assert verts == [2, 6, 10, 14] and len(edges) == 6
    r = build_zn(16)
    g = gamma_ideal(r, generate_ideal(r, [4]))
    assert g.is_complete() == (True, 4)
    assert not g.is_complemented()


def test_gamma_ideal_matches_oracle_on_zn_range():
    for n in range(2, 25):
        r = build_zn(n)
        for d in range(n):
            ideal = generate_ideal(r, [d])
            if not ideal.is_proper:
                continue
            verts, edges = zn_gamma_ideal(n, [d])
            g = gamma_ideal(r, ideal)
            assert list(g.vertices) == verts, (n, d)
            assert set(edge_keys(g)) == edges, (n, d)


def test_gamma_ideal_zero_ideal_equals_gamma():
    for n in (6, 8, 12, 16):
        r = build_zn(n)
        g0 = gamma_ideal(r, generate_ideal(r, []))
        g = gamma(r)
        assert g0.vertices == g.vertices
        assert np.array_equal(g0.adj, g.adj)


def test_gamma_ideal_rejects_improper_ideal():
    r = build_zn(6)
    with pytest.raises(ImproperIdealError):
        gamma_ideal(r, generate_ideal(r, [5]))


def test_prime_ideal_gives_empty_graph():
    r = build_zn(6)
    g = gamma_ideal(r, generate_ideal(r, [3]))
    assert g.vertices == ()
    assert g.is_complemented() and g.is_uniquely_complemented()


def test_complete_graph_k3_has_no_orthogonal_pairs():
    g = graph_from_edges([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert g.is_complete() == (True, 3)
    assert not g.orth.any()
    assert not g.is_complemented()


def test_path_on_three_vertices_is_not_complete():
    g = graph_from_edges([0, 1, 2], [(0, 1), (1, 2)])
    assert g.is_complete() == (False, 3)
    assert is_connected(g) == (True, 2)


def test_graph_from_edges_rejects_loops_and_unknown_edges():
    # the edge-list checks of the test helper that builds fixture graphs
    with pytest.raises(ValueError, match="self-loop"):
        graph_from_edges([0, 1], [(0, 0)])
    with pytest.raises(ValueError, match="unknown vertex"):
        graph_from_edges([0, 1], [(0, 2)])


def _relation_matrix(g, adj, relation):
    """The vertex x vertex boolean matrix of an oracle relation on ``adj``."""
    rows = [[relation(adj, a, b) for b in g.vertices] for a in g.vertices]
    return np.array(rows, dtype=bool).reshape(g.adj.shape)


def test_predicates_match_naive_oracle():
    # the naive definitions against the library predicates on Gamma_I(R) and
    # Gamma(R/I) for every (ring, proper ideal) pair of the default catalogue
    graphs = 0
    for entry in default_catalogue():
        r = build_ring(entry.spec)
        for ideal in all_ideals(r):
            if not ideal.is_proper:
                continue
            pair = (entry.spec, ideal.generators)
            for g in (gamma_ideal(r, ideal), gamma(quotient_ring(r, ideal)[0])):
                adj = adj_from_edges(g.vertices, edge_keys(g))
                assert g.is_complemented() == graph_complemented(adj), pair
                assert g.is_uniquely_complemented() == graph_uniquely_complemented(adj), pair
                assert np.array_equal(g.orth, _relation_matrix(g, adj, graph_orthogonal)), pair
                # similar vertices are exactly those with equal adjacency rows
                equal_rows = (g.adj[:, None, :] == g.adj[None, :, :]).all(axis=2)
                assert np.array_equal(equal_rows, _relation_matrix(g, adj, graph_similar)), pair
                graphs += 1
    assert graphs == 2520


def test_complements_with_equal_orthogonality_rows_are_not_similar():
    # vertex 0 has complements 1 and 2, each orthogonal to 0 alone; but 1 also
    # lies in the triangle 1-3-4, so their neighborhoods differ
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (3, 4), (3, 5), (4, 6)]
    g = graph_from_edges(range(7), edges)
    adj = adj_from_edges(g.vertices, edges)
    assert row_keys(g, g.orth, 0) == (1, 2)
    assert row_keys(g, g.orth, 1) == row_keys(g, g.orth, 2) == (0,)
    assert g.is_complemented() and graph_complemented(adj)
    assert not similar(g, 1, 2)
    assert not g.is_uniquely_complemented()
    assert not graph_uniquely_complemented(adj)


def test_complemented_non_k2_path_in_gamma_z8():
    # Gamma(Z_8) is the path 2 -- 4 -- 6: complemented and uniquely
    # complemented, yet not complete
    g = gamma(build_zn(8))
    assert edge_keys(g) == [(2, 4), (4, 6)]
    assert g.is_complemented()
    assert g.is_uniquely_complemented()
    assert g.is_complete() == (False, 3)


def test_gamma_z4xz2_complemented_but_not_uniquely():
    # (0,1) has complements (1,0) and (2,0) with different neighborhoods
    r = direct_product(build_zn(4), build_zn(2))
    g = gamma(r)
    assert g.vertex_count == 5
    assert g.is_complemented()
    assert not g.is_uniquely_complemented()
    v01, v10, v20 = 1, 2, 4  # row-major pair indices in Z_4 x Z_2
    assert set(row_keys(g, g.orth, v01)) >= {v10, v20}
    assert not similar(g, v10, v20)


def test_dot_export_is_deterministic():
    r = build_zn(8)
    g = gamma_ideal(r, generate_ideal(r, [4]))
    expected = (
        'graph "Gamma_{4}(Zn:8)" {\n'
        '  "2";\n'
        '  "6";\n'
        '  "2" -- "6";\n'
        "}\n"
    )
    title = "Gamma_{4}(Zn:8)"
    assert g.to_dot(r.element_names, title) == expected
    assert g.to_dot(r.element_names, title) == gamma_ideal(r, generate_ideal(r, [4])).to_dot(r.element_names, title)


def test_json_export_shape():
    r = build_zn(8)
    g = gamma_ideal(r, generate_ideal(r, [4]))
    assert g.to_json_obj(r.element_names) == {"vertices": ["2", "6"], "edges": [[0, 1]]}
    r12 = build_zn(12)
    obj = gamma_ideal(r12, generate_ideal(r12, [6])).to_json_obj(r12.element_names)
    assert obj["vertices"] == ["2", "3", "4", "8", "9", "10"]
    assert len(obj["edges"]) == 8
    assert all(i < j for i, j in obj["edges"])


def test_quotient_graph_uses_coset_labels():
    from zdglab import quotient_ring

    r = build_zn(12)
    q, _ = quotient_ring(r, generate_ideal(r, [6]))
    g = gamma(q)
    assert g.vertices == (2, 3, 4)
    assert g.to_json_obj(q.element_names)["vertices"] == ["2+I", "3+I", "4+I"]


def _pair_graphs(entries):
    """Gamma_I(R) and Gamma(R/I) for every pair that ``verify`` would analyze."""
    for entry in entries:
        r = build_ring(entry.spec)
        if entry.ideal_filters is None:
            ideals = [i for i in all_ideals(r) if i.is_proper]
        else:
            ideals = [generate_ideal(r, gens) for gens in entry.ideal_filters]
        for ideal in ideals:
            yield gamma_ideal(r, ideal)
            yield gamma(quotient_ring(r, ideal)[0])


def _assert_orth_matches_dense(g):
    dense = dense_orth(g.adj)
    assert g.is_complemented() == bool(dense.any(axis=1).all())
    assert g.is_uniquely_complemented() == dense_uniquely_complemented(g.adj)
    assert np.array_equal(g.orth, dense)
    assert np.array_equal(g.orth, per_class_orth(g.adj))
    first, labels, _ = g._classes
    expected_first, expected_labels = unpacked_row_classes(g.adj)
    assert np.array_equal(first, expected_first) and np.array_equal(labels, expected_labels)


def test_orth_matches_dense_product_on_scale_catalogue():
    # every scale graph and the graph made from it by dropping its top vertex
    entries = parse_catalogue_text(SCALE_CATALOGUE.read_text(encoding="utf-8"))
    graphs = list(_pair_graphs(entries))
    assert len(graphs) == 24
    assert max(g.vertex_count for g in graphs) == 2047  # Gamma(Z_4096)
    for g in graphs:
        _assert_orth_matches_dense(g)
        if g.vertex_count:
            _assert_orth_matches_dense(_drop_top_vertex(g))


def test_orth_matches_dense_product_with_sixteen_words_per_class_row():
    # Gamma(Z_2^10): every vertex is its own class (c = V = 1022, 16 words a
    # row), x and y are orthogonal exactly when their supports partition
    # {1..10}, so each vertex has a single complement
    spec = "Zn:2"
    for _ in range(9):
        spec = f"prod(Zn:2,{spec})"
    g = gamma(build_ring(spec))
    assert g.vertex_count == len(g._classes[0]) == 1022
    _assert_orth_matches_dense(g)
    assert g.is_uniquely_complemented() and g.orth.sum() == 1022
    dropped = _drop_top_vertex(g)
    _assert_orth_matches_dense(dropped)
    assert not dropped.is_complemented()  # the complement of the top vertex is gone


def _planted_graph(classes, seed):
    """A symmetric loop-free graph made from the class graph ``classes``:
    each class expanded to 1-3 vertices with equal rows, the vertices in a
    shuffled order."""
    rng = np.random.default_rng(seed)
    members = np.repeat(np.arange(len(classes)), rng.integers(1, 4, len(classes)))
    rng.shuffle(members)
    return SimpleGraph(range(len(members)), classes[np.ix_(members, members)])


def _random_class_graph(count, density, seed):
    upper = np.triu(np.random.default_rng(seed).random((count, count)) < density, 1)
    return upper | upper.T


def _boolean_class_graph(bits, flips, seed):
    """The classes of Gamma(F_2^bits), the nonempty proper subsets of
    {1..bits}, adjacent when disjoint (uniquely complemented), with
    ``flips`` random class pairs toggled."""
    subsets = np.arange(1, 2**bits - 1)
    classes = (subsets[:, None] & subsets[None, :]) == 0
    rng = np.random.default_rng(seed)
    for _ in range(flips):
        i, j = rng.choice(len(subsets), 2, replace=False)
        classes[i, j] = classes[j, i] = not classes[i, j]
    return classes


PLANTED = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@pytest.mark.parametrize(
    "counts, bits", [((1, 63), (2, 6)), ((80, 150), (7, 7))], ids=["one-word", "several-words"]
)
@PLANTED
@given(data=st.data())
def test_orth_matches_dense_product_on_planted_graphs(counts, bits, data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    if data.draw(st.booleans(), label="boolean"):
        classes = _boolean_class_graph(
            data.draw(st.integers(*bits), label="bits"), data.draw(st.integers(0, 6), label="flips"), seed
        )
    else:
        density = data.draw(st.sampled_from([0.02, 0.05, 0.1, 0.3, 0.7]), label="density")
        classes = _random_class_graph(data.draw(st.integers(*counts), label="count"), density, seed)
    g = _planted_graph(classes, seed)
    # classes left with equal rows by the draw merge; stay on one side of 64
    assume((len(g._classes[0]) <= 64) == (counts[1] <= 64))
    _assert_orth_matches_dense(g)
    if g.vertex_count:
        _assert_orth_matches_dense(_drop_top_vertex(g))


def test_verdict_of_the_zero_ideal_pair_at_the_cap_never_gathers_orth():
    ring = build_ring("Zn:4096")
    analysis = analyze_pair(ring, generate_ideal(ring, []))
    assert not analysis.verdict.gi_complemented and not analysis.verdict.gi_uniquely_complemented
    for g in (analysis.gi, analysis.gq):
        assert g.vertex_count == 2047 and len(g._classes[0]) == 68
        assert "_classes" in vars(g) and "orth" not in vars(g)


def test_orth_matches_dense_product_on_default_catalogue():
    # every graph of the default catalogue, and the --inject-fault graph made
    # from each by dropping its top vertex, which can merge classes
    graphs = 0
    for g in _pair_graphs(default_catalogue()):
        _assert_orth_matches_dense(g)
        if g.vertex_count:
            _assert_orth_matches_dense(_drop_top_vertex(g))
        graphs += 1
    assert graphs == 2520


def _complete_bipartite(m, n):
    edges = [(a, m + b) for a in range(m) for b in range(n)]
    return graph_from_edges(range(m + n), edges)


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(graph_from_edges([], []), id="empty"),
        pytest.param(graph_from_edges([0], []), id="K1"),
        pytest.param(graph_from_edges(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)]), id="P5"),
        pytest.param(_complete_bipartite(1, 1), id="K1,1"),
        pytest.param(_complete_bipartite(2, 3), id="K2,3"),
        pytest.param(_complete_bipartite(4, 4), id="K4,4"),
        # widths whose packed rows are padded to whole 64-bit words
        pytest.param(_complete_bipartite(31, 34), id="K31,34"),
        pytest.param(graph_from_edges(range(70), [(i, i + 1) for i in range(69)]), id="P70"),
        pytest.param(graph_from_edges(range(130), [(i, (i + 1) % 130) for i in range(130)]), id="C130"),
        # complements 1 and 2 of vertex 0 have equal orth rows, unequal adj rows
        pytest.param(
            graph_from_edges(range(7), [(0, 1), (0, 2), (1, 3), (1, 4), (3, 4), (3, 5), (4, 6)]),
            id="equal-orth-rows",
        ),
    ],
)
def test_orth_matches_dense_product_on_small_graphs(g):
    _assert_orth_matches_dense(g)


def test_graph_rejects_adjacency_that_is_not_square_symmetric_and_loop_free():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    SimpleGraph(range(3), adj)
    with pytest.raises(ValueError, match="shape"):
        SimpleGraph(range(3), adj[:, :2])  # not square
    with pytest.raises(ValueError, match="shape"):
        SimpleGraph(range(2), adj)  # more rows than vertices
    asymmetric = adj.copy()
    asymmetric[1, 2] = True
    with pytest.raises(ValueError, match="symmetric"):
        SimpleGraph(range(3), asymmetric)
    # symmetry is checked in row blocks of 218 rows at V = 300: the only
    # asymmetric cell, (250, 280), lies in the second block
    assert [b.start for b in row_blocks(300, 300)] == [0, 218]
    big = np.zeros((300, 300), dtype=bool)
    big[10, 20] = big[20, 10] = big[250, 260] = big[260, 250] = True
    SimpleGraph(range(300), big.copy())
    big[250, 280] = True
    with pytest.raises(ValueError, match="symmetric"):
        SimpleGraph(range(300), big)
    looped = adj.copy()
    looped[2, 2] = True
    with pytest.raises(ValueError, match="loop"):
        SimpleGraph(range(3), looped)
    # the keys must be strictly ascending: neither out of order nor repeated
    with pytest.raises(ValueError, match="strictly ascending"):
        SimpleGraph([3, 1], adj[:2, :2])
    with pytest.raises(ValueError, match="strictly ascending"):
        SimpleGraph([1, 1], adj[:2, :2])


def test_graph_leaves_the_callers_adjacency_array_writeable():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    g = SimpleGraph(range(3), adj)  # P2 and an isolated vertex
    assert adj.flags.writeable and not g.adj.flags.writeable
    adj[0, 2] = adj[2, 0] = True  # the caller's matrix is now P3
    assert g.edges() == [(0, 1)]
    assert not g.is_complemented()  # first decided after the write: 2 is isolated
    assert SimpleGraph(range(3), adj).is_uniquely_complemented()


def test_path_and_complete_bipartite_classes():
    path = graph_from_edges(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert sorted(path._classes[1]) == [0, 1, 2, 3, 4]  # no two rows equal
    assert path.orth.sum() == 2 * 4
    k = _complete_bipartite(2, 3)
    assert len(k._classes[0]) == 2
    assert k.orth.sum() == 2 * 6 and k.is_uniquely_complemented()


def test_orth_after_dropping_the_top_vertex():
    # 0 and 1 differ only at the top vertex 4, and the edge 0-2 lies only in
    # the triangle 0-2-4: dropping 4 merges {0, 1} and {2, 3} into two classes
    # of K_{2,2} and makes 0-2 orthogonal, so nothing of the parent's classes
    # or products carries over
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4)]
    g = graph_from_edges(range(5), edges)
    assert len(g._classes[0]) == 5
    assert not orthogonal(g, 0, 2)
    _assert_orth_matches_dense(g)
    dropped = _drop_top_vertex(g)
    assert dropped.vertices == (0, 1, 2, 3)
    assert len(dropped._classes[0]) == 2
    assert orthogonal(dropped, 0, 2)
    assert dropped.is_uniquely_complemented() and not g.is_complemented()
    _assert_orth_matches_dense(dropped)
