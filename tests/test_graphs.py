"""Zero-divisor graphs and the complemented / uniquely-complemented predicates.

Graph fixtures over Z_n are cross-checked against the brute-force oracle
in ``oracles.py`` and frozen as literals.
"""

import pytest

from zdglab import (
    ImproperIdealError,
    SimpleGraph,
    UnknownVertexError,
    all_ideals,
    build_ring,
    build_zn,
    default_catalogue,
    direct_product,
    gamma,
    gamma_ideal,
    generate_ideal,
    quotient_ring,
)

from oracles import (
    adj_from_edges,
    graph_complemented,
    graph_orthogonal,
    graph_similar,
    graph_uniquely_complemented,
    zn_gamma_ideal,
)


def test_gamma_z6_is_a_path():
    verts, edges = zn_gamma_ideal(6, [])
    assert verts == [2, 3, 4] and edges == {(2, 3), (3, 4)}
    g = gamma(build_zn(6))
    assert g.vertices == (2, 3, 4)
    assert g.edge_list() == [(2, 3), (3, 4)]
    assert g.neighbors(3) == {2, 4}
    assert g.is_connected() == (True, 2)
    assert g.is_complemented()


def test_gamma_z4_is_single_vertex():
    g = gamma(build_zn(4))
    assert g.vertices == (2,)
    assert g.edge_list() == []
    assert g.is_complete() == (True, 1)
    assert not g.is_complemented()
    assert not g.is_uniquely_complemented()
    assert g.neighbors(2) == frozenset()


def test_gamma_of_a_field_is_empty():
    g = gamma(build_zn(7))
    assert g.vertices == ()
    assert g.is_complemented()
    assert g.is_uniquely_complemented()
    assert g.is_connected() == (True, 0)
    assert g.is_complete() == (True, 0)


def test_gamma_ideal_z8_by_4_is_k2():
    verts, edges = zn_gamma_ideal(8, [4])
    assert verts == [2, 6] and edges == {(2, 6)}
    r = build_zn(8)
    g = gamma_ideal(r, generate_ideal(r, [4]))
    assert g.vertices == (2, 6)
    assert g.edge_list() == [(2, 6)]
    assert g.is_complete() == (True, 2)
    assert g.is_complemented() and g.is_uniquely_complemented()


def test_gamma_ideal_z12_by_6():
    verts, edges = zn_gamma_ideal(12, [6])
    assert verts == [2, 3, 4, 8, 9, 10]
    assert edges == {(2, 3), (2, 9), (3, 4), (3, 8), (3, 10), (4, 9), (8, 9), (9, 10)}
    r = build_zn(12)
    g = gamma_ideal(r, generate_ideal(r, [6]))
    assert g.vertices == tuple(verts)
    assert set(g.edge_list()) == edges
    assert g.vertex_count == 6 and g.edge_count == 8
    assert g.is_complemented() and g.is_uniquely_complemented()
    assert g.is_connected()[0] and g.is_connected()[1] <= 3
    # orthogonality and similarity spot checks
    assert g.are_orthogonal(2, 3)
    assert g.are_similar(2, 8)
    assert not g.are_similar(2, 3)
    assert g.complements(3) == (2, 4, 8, 10)


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
            assert set(g.edge_list()) == edges, (n, d)


def test_gamma_ideal_zero_ideal_equals_gamma():
    for n in (6, 8, 12, 16):
        r = build_zn(n)
        g0 = gamma_ideal(r, generate_ideal(r, []))
        g = gamma(r)
        assert g0.vertices == g.vertices
        assert g0.edge_list() == g.edge_list()


def test_gamma_ideal_rejects_improper_ideal():
    r = build_zn(6)
    with pytest.raises(ImproperIdealError):
        gamma_ideal(r, generate_ideal(r, [5]))


def test_prime_ideal_gives_empty_graph():
    r = build_zn(6)
    g = gamma_ideal(r, generate_ideal(r, [3]))
    assert g.vertices == ()
    assert g.is_complemented() and g.is_uniquely_complemented()


def test_orthogonality_errors():
    g = gamma(build_zn(6))
    with pytest.raises(ValueError):
        g.are_orthogonal(2, 2)
    with pytest.raises(UnknownVertexError):
        g.are_orthogonal(2, 5)
    with pytest.raises(UnknownVertexError):
        g.neighbors(0)


def test_similar_is_reflexive():
    g = gamma(build_zn(6))
    assert g.are_similar(2, 2)


def test_complete_graph_k3_has_no_orthogonal_pairs():
    g = SimpleGraph([0, 1, 2], {0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2), (0, 2)], name="K3")
    assert g.is_complete() == (True, 3)
    for a in (0, 1, 2):
        assert g.complements(a) == ()
    assert not g.is_complemented()


def test_path_on_three_vertices_is_not_complete():
    g = SimpleGraph([0, 1, 2], {0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
    assert g.is_complete() == (False, 3)
    assert g.is_connected() == (True, 2)


def test_simple_graph_rejects_loops_and_unknown_edges():
    with pytest.raises(ValueError):
        SimpleGraph([0, 1], {0: "a", 1: "b"}, [(0, 0)])
    with pytest.raises(UnknownVertexError):
        SimpleGraph([0, 1], {0: "a", 1: "b"}, [(0, 2)])


def test_predicates_match_naive_oracle():
    # the naive definitions against the library predicates on Gamma_I(R) and
    # Gamma(R/I) for every (ring, proper ideal) pair of the default catalogue
    graphs = 0
    for entry in default_catalogue():
        r = build_ring(entry.spec)
        for ideal in all_ideals(r):
            if not ideal.is_proper:
                continue
            for g in (gamma_ideal(r, ideal), gamma(quotient_ring(r, ideal)[0])):
                adj = adj_from_edges(g.vertices, g.edge_list())
                assert g.is_complemented() == graph_complemented(adj), g.name
                assert g.is_uniquely_complemented() == graph_uniquely_complemented(adj), g.name
                for a in g.vertices:
                    others = [b for b in g.vertices if b != a]
                    expected = tuple(b for b in others if graph_orthogonal(adj, a, b))
                    assert g.complements(a) == expected, (g.name, a)
                    for b in others:
                        assert g.are_similar(a, b) == graph_similar(adj, a, b), (g.name, a, b)
                graphs += 1
    assert graphs == 2520


def test_complements_with_equal_orthogonality_rows_are_not_similar():
    # vertex 0 has complements 1 and 2, each orthogonal to 0 alone; but 1 also
    # lies in the triangle 1-3-4, so their neighborhoods differ
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (3, 4), (3, 5), (4, 6)]
    g = SimpleGraph(range(7), {v: str(v) for v in range(7)}, edges)
    adj = adj_from_edges(g.vertices, edges)
    assert g.complements(0) == (1, 2)
    assert g.complements(1) == g.complements(2) == (0,)
    assert g.is_complemented() and graph_complemented(adj)
    assert not g.are_similar(1, 2)
    assert not g.is_uniquely_complemented()
    assert not graph_uniquely_complemented(adj)


def test_complemented_non_k2_path_in_gamma_z8():
    # Gamma(Z_8) is the path 2 -- 4 -- 6: complemented and uniquely
    # complemented, yet not complete
    g = gamma(build_zn(8))
    assert g.edge_list() == [(2, 4), (4, 6)]
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
    assert set(g.complements(v01)) >= {v10, v20}
    assert not g.are_similar(v10, v20)


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
    assert g.to_dot() == expected
    assert g.to_dot() == gamma_ideal(r, generate_ideal(r, [4])).to_dot()


def test_json_export_shape():
    r = build_zn(8)
    g = gamma_ideal(r, generate_ideal(r, [4]))
    assert g.to_json_obj() == {"vertices": ["2", "6"], "edges": [[0, 1]]}
    r12 = build_zn(12)
    obj = gamma_ideal(r12, generate_ideal(r12, [6])).to_json_obj()
    assert obj["vertices"] == ["2", "3", "4", "8", "9", "10"]
    assert len(obj["edges"]) == 8
    assert all(i < j for i, j in obj["edges"])


def test_quotient_graph_uses_coset_labels():
    from zdglab import quotient_ring

    r = build_zn(12)
    q, _ = quotient_ring(r, generate_ideal(r, [6]))
    g = gamma(q)
    assert [g.labels[v] for v in g.vertices] == ["2+I", "3+I", "4+I"]
