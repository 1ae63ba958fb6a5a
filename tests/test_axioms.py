"""Ring-axiom validation: the generator-based validator against the O(n^3)
scan over every triple in ``oracles.py``, its witnesses, and rings too large
for the scan.
"""

import random
import re

import numpy as np
import pytest

from zdglab import FiniteRing, RingConsistencyError, build_ring, default_catalogue, validate_ring_axioms
from zdglab.rings import _additive_generators

from oracles import cubic_validate_ring_axioms

WITNESS = re.compile(
    r"^(addition not associative|multiplication not associative|distributivity fails) at \((\d+),(\d+),(\d+)\)$"
)


def verdict(validate, ring) -> bool:
    try:
        validate(ring)
    except RingConsistencyError:
        return False
    return True


def triple_fails(ring: FiniteRing, message: str) -> bool:
    """Whether the identity named by a validator message fails at its triple."""
    label, x, g, y = WITNESS.match(message).groups()
    A, M = ring.add_table, ring.mul_table
    x, g, y = int(x), int(g), int(y)
    if label == "distributivity fails":
        return M[x, A[g, y]] != A[M[x, g], M[x, y]]
    T = A if label.startswith("addition") else M
    return T[T[x, g], y] != T[x, T[g, y]]


def with_cell(ring: FiniteRing, table: str, i: int, j: int, value: int, *, mirrored: bool = True) -> FiniteRing:
    """A copy of ``ring`` with cell (i, j) of its ``table`` ("add" or "mul")
    set to ``value``, and cell (j, i) too when ``mirrored``."""
    tables = {"add": ring.add_table.copy(), "mul": ring.mul_table.copy()}
    tables[table][i, j] = value
    if mirrored:
        tables[table][j, i] = value
    return FiniteRing(
        tables["add"], tables["mul"], ring.element_names, f"{ring.spec}~{table}({i},{j})", ring.zero, ring.one
    )


def random_corruption(ring: FiniteRing, rng: random.Random) -> FiniteRing:
    """A seeded single-cell corruption that the constructor accepts. The row
    is that of zero, of an additive generator or any element, so the mul row
    of zero and the add rows of the generators are hit as well; one in four
    corruptions is not mirrored."""
    gens = _additive_generators(ring)
    while True:
        table = rng.choice(("add", "mul"))
        i = rng.choice((ring.zero, rng.choice(gens), rng.randrange(ring.order)))
        j = rng.randrange(ring.order)
        old = int((ring.add_table if table == "add" else ring.mul_table)[i, j])
        value = rng.choice([v for v in range(ring.order) if v != old])
        try:
            return with_cell(ring, table, i, j, value, mirrored=rng.random() < 0.75)
        except RingConsistencyError:
            continue  # the constructor caught it: only zero's add row and one's mul row are checked there


def test_validators_agree_on_default_catalogue():
    for entry in default_catalogue():
        ring = build_ring(entry.spec)
        assert verdict(validate_ring_axioms, ring), entry.spec
        assert verdict(cubic_validate_ring_axioms, ring), entry.spec


def test_validators_agree_on_single_cell_corruptions():
    rings = [build_ring(e.spec) for e in default_catalogue()]
    rings = [r for r in rings if 4 <= r.order <= 64]
    rng = random.Random(20150212)
    hit_zero_mul_row = hit_generator_row = unmirrored = 0
    for _ in range(2400):
        ring = rng.choice(rings)
        bad = random_corruption(ring, rng)
        changed = np.argwhere((bad.add_table != ring.add_table) | (bad.mul_table != ring.mul_table))
        rows = {int(i) for i, _ in changed}
        hit_zero_mul_row += bool((bad.mul_table[ring.zero] != ring.mul_table[ring.zero]).any())
        hit_generator_row += bool(rows & set(_additive_generators(ring)))
        unmirrored += {tuple(c) for c in changed} != {tuple(c[::-1]) for c in changed}
        # a single changed cell always breaks an axiom: a row of + stops being
        # a bijection, or a row of * stops being additive
        assert not verdict(cubic_validate_ring_axioms, bad), bad.spec
        with pytest.raises(RingConsistencyError) as caught:
            validate_ring_axioms(bad)
        message = str(caught.value)
        if WITNESS.match(message):
            assert triple_fails(bad, message), (bad.spec, message)
    assert min(hit_zero_mul_row, hit_generator_row, unmirrored) >= 200


def test_witness_of_additive_associativity():
    bad = with_cell(build_ring("Zn:6"), "add", 2, 3, 4)
    with pytest.raises(RingConsistencyError, match=r"^addition not associative at \(1,1,3\)$") as caught:
        validate_ring_axioms(bad)
    assert triple_fails(bad, str(caught.value))


def test_witness_of_distributivity():
    bad = with_cell(build_ring("Zn:6"), "mul", 2, 3, 1)
    with pytest.raises(RingConsistencyError, match=r"^distributivity fails at \(2,1,2\)$") as caught:
        validate_ring_axioms(bad)
    assert triple_fails(bad, str(caught.value))


def test_zero_times_x_is_not_assumed():
    bad = with_cell(build_ring("Zn:6"), "mul", 0, 3, 3)
    with pytest.raises(RingConsistencyError, match=r"^distributivity fails at \(0,1,2\)$") as caught:
        validate_ring_axioms(bad)
    assert triple_fails(bad, str(caught.value))


def test_witness_of_multiplicative_associativity():
    # F_2^3 with basis 1, u, v (bits 0, 1, 2) and the commutative bilinear
    # product uu = v, uv = u, vv = 0: distributive but (uu)v = 0 != v = u(uv).
    # A single changed cell cannot do this, since it breaks distributivity.
    basis = [[1, 2, 4], [2, 4, 2], [4, 2, 0]]  # products of basis elements
    i = np.arange(8)
    mul = np.zeros((8, 8), dtype=np.intp)
    for a in range(8):
        for b in range(8):
            for s in range(3):
                for t in range(3):
                    if a >> s & 1 and b >> t & 1:
                        mul[a, b] ^= basis[s][t]
    bad = FiniteRing(i[:, None] ^ i[None, :], mul, [str(x) for x in range(8)], "nonassociative:F2^3", 0, 1)
    with pytest.raises(RingConsistencyError, match=r"^multiplication not associative at \(2,2,4\)$") as caught:
        validate_ring_axioms(bad)
    assert triple_fails(bad, str(caught.value))
    with pytest.raises(RingConsistencyError, match="^multiplication not associative"):
        cubic_validate_ring_axioms(bad)


@pytest.mark.parametrize("spec", ["Zn:1024", "prod(Zn:32,Zn:64)"])
def test_large_rings_beyond_the_cubic_scan(spec):
    ring = build_ring(spec)
    validate_ring_axioms(ring)
    bad = random_corruption(ring, random.Random(spec))
    with pytest.raises(RingConsistencyError):
        validate_ring_axioms(bad)
