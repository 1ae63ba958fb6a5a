"""Cross-module invariants, verified exhaustively over a mini-catalogue.

The domain is finite and enumerable, so these property checks sweep every
(ring, proper ideal) pair of a representative ring family rather than
sampling.
"""

import pytest

from zdglab import (
    all_ideals,
    analyze_pair,
    build_ring,
    gamma,
    gamma_ideal,
    is_prime,
    is_radical,
    is_reduced,
    is_von_neumann_regular,
    quotient_ring,
    radical,
    total_quotient_ring,
    validate_ring_axioms,
    zero_divisors,
)

from oracles import is_connected, members

MINI_SPECS = (
    [f"Zn:{n}" for n in range(2, 31)]
    + [
        "prod(Zn:2,Zn:2)",
        "prod(Zn:2,Zn:3)",
        "prod(Zn:2,Zn:4)",
        "prod(Zn:3,Zn:3)",
        "prod(Zn:4,Zn:2)",
        "prod(Zn:4,Zn:4)",
        "prod(Zn:2,Zn:6)",
    ]
    + [
        "polyq:2:0,1",
        "polyq:2:1,1",
        "polyq:2:0,0,1",
        "polyq:2:1,1,1",
        "polyq:2:1,0,1",
        "polyq:2:0,0,0,1",
        "polyq:2:1,1,0,1",
        "polyq:3:0,1",
        "polyq:3:0,0,1",
        "polyq:3:1,0,1",
        "polyq:3:2,0,1",
    ]
)


@pytest.fixture(scope="module")
def mini_rings():
    return [build_ring(spec) for spec in MINI_SPECS]


@pytest.fixture(scope="module")
def mini_pairs(mini_rings):
    pairs = []
    for ring in mini_rings:
        for ideal in all_ideals(ring):
            if ideal.is_proper:
                pairs.append((ring, ideal))
    return pairs


def test_ring_axioms_hold(mini_rings):
    for ring in mini_rings:
        validate_ring_axioms(ring)


def test_reduced_iff_vnr(mini_rings):
    for ring in mini_rings:
        assert is_reduced(ring) == is_von_neumann_regular(ring), ring.spec


def test_unit_or_zero_divisor_partition(mini_rings):
    for ring in mini_rings:
        assert total_quotient_ring(ring) is ring


def test_radical_idempotent_and_extensive(mini_pairs):
    for _, ideal in mini_pairs:
        rad = radical(ideal)
        assert members(ideal) <= members(rad)
        assert members(radical(rad)) == members(rad)


def test_quotient_reduced_iff_radical_iff_vnr(mini_pairs):
    for ring, ideal in mini_pairs:
        q, _ = quotient_ring(ring, ideal)
        flag = is_radical(ideal)
        assert is_reduced(q) == flag, (ring.spec, sorted(members(ideal)))
        assert is_von_neumann_regular(q) == flag, (ring.spec, sorted(members(ideal)))


def test_prime_iff_domain_quotient(mini_pairs):
    for ring, ideal in mini_pairs:
        q, _ = quotient_ring(ring, ideal)
        assert is_prime(ideal) == (len(zero_divisors(q)) == 1)


def test_lagrange(mini_pairs):
    for ring, ideal in mini_pairs:
        q, _ = quotient_ring(ring, ideal)
        assert ring.order == len(members(ideal)) * q.order


def test_cardinality_identity(mini_pairs):
    for ring, ideal in mini_pairs:
        gi = gamma_ideal(ring, ideal)
        q, _ = quotient_ring(ring, ideal)
        assert gi.vertex_count == len(members(ideal)) * gamma(q).vertex_count


def test_nonempty_iff_not_prime(mini_pairs):
    for ring, ideal in mini_pairs:
        gi = gamma_ideal(ring, ideal)
        assert (gi.vertex_count > 0) == (not is_prime(ideal))


def test_inflation_adjacency_structure(mini_pairs):
    # distinct vertices x, y are adjacent exactly when their cosets multiply
    # to zero (distinct cosets) or their shared coset squares to zero
    for ring, ideal in mini_pairs:
        gi = gamma_ideal(ring, ideal)
        q, cmap = quotient_ring(ring, ideal)
        for i, x in enumerate(gi.vertices):
            for j in range(i + 1, gi.vertex_count):
                y = gi.vertices[j]
                cx, cy = int(cmap[x]), int(cmap[y])
                if cx != cy:
                    expected = int(q.mul_table[cx, cy]) == q.zero
                else:
                    expected = int(q.mul_table[cx, cx]) == q.zero
                assert gi.adj[i, j] == gi.adj[j, i] == expected, (ring.spec, sorted(members(ideal)), x, y)


def test_gamma_connected_with_small_diameter(mini_rings):
    for ring in mini_rings:
        g = gamma(ring)
        connected, diameter = is_connected(g)
        assert connected, ring.spec
        assert diameter <= 3, ring.spec


def test_relation_sanity(mini_rings):
    for ring in mini_rings:
        g = gamma(ring)
        for i in range(g.vertex_count):
            for j in range(g.vertex_count):
                if i == j:
                    assert not g.adj[i, j] and not g.orth[i, j]
                    continue
                if g.orth[i, j]:
                    assert g.adj[i, j] and g.orth[j, i]
                if (g.adj[i] == g.adj[j]).all():  # similar
                    assert not g.adj[i, j]


def test_verdict_count_invariant(mini_pairs):
    for ring, ideal in mini_pairs:
        v = analyze_pair(ring, ideal).verdict
        assert v.quotient_vertex_count >= 0 and v.gi_vertex_count >= 0
        assert v.gi_vertex_count == len(v.ideal_members) * v.quotient_vertex_count
