"""Ring-axiom validation: the generator-based validator against the O(n^3)
scan over every triple and against its whole-table predecessor in
``oracles.py``, the generator search against its breadth-first
predecessor, its witnesses, its memory, and rings too large for the scan.
"""

import random
import re
import tracemalloc

import numpy as np
import pytest

from zdglab import FiniteRing, RingConsistencyError, build_ring, default_catalogue, validate_ring_axioms
from zdglab.rings import _additive_generators

from oracles import bfs_additive_generators, cubic_validate_ring_axioms, whole_table_validate_ring_axioms

WITNESS = re.compile(
    r"^(addition not associative|multiplication not associative|distributivity fails) at \((\d+),(\d+),(\d+)\)$"
)


def verdict(validate, ring) -> bool:
    try:
        validate(ring)
    except RingConsistencyError:
        return False
    return True


def outcome(fn, ring):
    """What ``fn(ring)`` returns, or the type and message of what it raises."""
    try:
        return fn(ring)
    except Exception as e:
        return type(e), str(e)


def traced(fn, ring):
    """``outcome(fn, ring)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return outcome(fn, ring), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        assert outcome(whole_table_validate_ring_axioms, bad) == (RingConsistencyError, message), bad.spec
        assert outcome(_additive_generators, bad) == outcome(bfs_additive_generators, bad), bad.spec
        if WITNESS.match(message):
            assert triple_fails(bad, message), (bad.spec, message)
    assert min(hit_zero_mul_row, hit_generator_row, unmirrored) >= 200


def test_generators_match_breadth_first_search():
    rings = [build_ring(e.spec) for e in default_catalogue()]
    rings += [build_ring(spec) for spec in ("polyq:2:1,0,0,0,0,0,0,0,0,0,1", "Zn:1024", "prod(Zn:16,Zn:256)")]
    for ring in rings:
        assert _additive_generators(ring) == bfs_additive_generators(ring), ring.spec
    assert _additive_generators(rings[-3]) == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]  # F_2^10
    assert _additive_generators(rings[-1]) == [1, 256]


@pytest.mark.parametrize("table", ["add", "mul"])
@pytest.mark.parametrize("mirrored", [True, False])
def test_witness_in_a_later_row_block(table, mirrored):
    # Zn:512 is scanned in blocks of 128 rows, and every failure here has x >= 128
    bad = with_cell(build_ring("Zn:512"), table, 400, 300, 5, mirrored=mirrored)
    message = outcome(validate_ring_axioms, bad)
    assert message == outcome(whole_table_validate_ring_axioms, bad)
    assert int(re.search(r"\((\d+),", message[1]).group(1)) >= 128, message


@pytest.mark.parametrize("spec", ["Zn:1024", "prod(Zn:32,Zn:64)"])
def test_validation_holds_no_table_sized_temporary(spec):
    ring = build_ring(spec)
    result, peak = traced(validate_ring_axioms, ring)
    assert result is None
    assert peak < ring.add_table.nbytes, (spec, peak)


def test_table_with_a_generator_per_element():
    # s + t = 0 for all nonzero s, t: commutative, with identity and inverses,
    # but every nonzero element is its own greedy generator
    n = 512
    add = np.zeros((n, n), dtype=np.intp)
    add[0] = add[:, 0] = np.arange(n)
    bad = FiniteRing(add, build_ring(f"Zn:{n}").mul_table, [str(x) for x in range(n)], "k=n-1", 0, 1)
    assert _additive_generators(bad) == bfs_additive_generators(bad) == list(range(1, n))
    message, peak = traced(validate_ring_axioms, bad)
    assert message == (RingConsistencyError, "addition not associative at (1,1,2)")
    assert peak < 1 << 20  # one block's temporaries, not a row per generator


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
