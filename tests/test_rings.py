"""Ring constructors and table-scan predicates.

Derived expectations are computed by the independent oracles in
``oracles.py`` (plain % arithmetic) and frozen as literals next to the
assertions they back.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import sympy

from zdglab import (
    CapExceededError,
    FiniteRing,
    InvalidElementError,
    all_ideals,
    InvalidModulusError,
    InvalidOrderError,
    InvalidPolynomialError,
    RingConsistencyError,
    build_poly_quotient,
    build_ring,
    build_zn,
    default_catalogue,
    direct_product,
    gamma_ideal,
    generate_ideal,
    is_reduced,
    is_von_neumann_regular,
    nilpotents,
    parse_ring_spec,
    quotient_ring,
    total_quotient_ring,
    validate_ring_axioms,
    zero_divisors,
)

from zdglab import rings
from zdglab.rings import table_mask

from oracles import (
    conv_poly_quotient_tables,
    eager_element_names,
    eager_quotient_names,
    horner_poly_quotient_tables,
    is_isomorphic_small,
    members,
    squarefree,
    zn_nilpotents,
    zn_units,
    zn_zero_divisors,
)


def test_build_zn_basics():
    r = build_zn(6)
    assert r.order == 6
    assert r.zero == 0 and r.one == 1
    assert r.element_names == ("0", "1", "2", "3", "4", "5")
    assert r.spec == "Zn:6"
    assert r.add_table[4, 5] == 3
    assert r.mul_table[4, 5] == 2


def test_build_zn_rejects_bad_orders():
    for n in (1, 0, -3):
        with pytest.raises(InvalidOrderError):
            build_zn(n)
    with pytest.raises(CapExceededError):
        build_zn(10, max_order=5)


def test_zn2_is_a_field():
    r = build_zn(2)
    assert members(zero_divisors(r)) == {0}
    assert is_reduced(r) and is_von_neumann_regular(r)


def test_zn6_zero_divisors():
    assert zn_zero_divisors(6) == {0, 2, 3, 4}
    assert members(zero_divisors(build_zn(6))) == {0, 2, 3, 4}


def test_zn4_has_exactly_two_zero_divisors():
    # |Z| = 2 happens exactly for the two 4-element non-reduced rings
    z = zero_divisors(build_zn(4))
    assert members(z) == {0, 2}
    assert len(z) == 2


def test_zero_divisors_match_oracle_small_range():
    for n in range(2, 40):
        assert members(zero_divisors(build_zn(n))) == zn_zero_divisors(n), n


def test_nilpotents():
    assert zn_nilpotents(12) == {0, 6}
    assert members(nilpotents(build_zn(12))) == {0, 6}
    assert members(nilpotents(build_zn(6))) == {0}
    assert members(nilpotents(build_zn(7))) == {0}
    for n in range(2, 40):
        assert members(nilpotents(build_zn(n))) == zn_nilpotents(n), n


def test_is_reduced():
    assert is_reduced(build_zn(6))
    assert not is_reduced(build_zn(4))
    assert not is_reduced(build_poly_quotient(2, [0, 0, 1]))


def test_vnr_matches_squarefree_on_zn():
    # Z_n is von Neumann regular exactly when n is squarefree
    for n in range(2, 40):
        assert is_von_neumann_regular(build_zn(n)) == squarefree(n), n
    assert not is_von_neumann_regular(build_zn(4))
    assert is_von_neumann_regular(build_zn(6))


def test_reduced_iff_vnr_on_finite_rings():
    rings = [build_zn(n) for n in range(2, 30)]
    rings += [build_poly_quotient(2, [0, 0, 1]), build_poly_quotient(2, [1, 1, 1])]
    rings += [direct_product(build_zn(4), build_zn(2)), direct_product(build_zn(2), build_zn(3))]
    for r in rings:
        assert is_reduced(r) == is_von_neumann_regular(r), r.spec


def test_poly_quotient_x_squared():
    r = build_poly_quotient(2, [0, 0, 1])
    assert r.order == 4
    assert r.element_names == ("0", "1", "x", "x+1")
    assert r.spec == "polyq:2:0,0,1"
    assert members(zero_divisors(r)) == {0, 2}  # {0, x}
    assert not is_reduced(r)


def test_poly_quotient_field_of_four_elements():
    # independent oracle: x^2 + x + 1 is irreducible over GF(2)
    x = sympy.symbols("x")
    assert sympy.Poly(x**2 + x + 1, x, modulus=2).is_irreducible
    r = build_poly_quotient(2, [1, 1, 1])
    assert r.order == 4
    assert members(zero_divisors(r)) == {0}
    assert is_reduced(r) and is_von_neumann_regular(r)


def test_poly_quotient_by_x_collapses_to_prime_field():
    r = build_poly_quotient(3, [0, 1])
    assert r.order == 3
    assert is_isomorphic_small(r, build_zn(3))


def test_poly_quotient_names_degree_two_over_z3():
    r = build_poly_quotient(3, [1, 0, 1])
    assert r.element_names[5] == "x+2"
    assert r.element_names[3] == "x"
    assert r.element_names[7] == "2x+1"
    assert r.element_names[0] == "0"


def test_poly_quotient_validation():
    with pytest.raises(InvalidModulusError):
        build_poly_quotient(4, [0, 1])
    with pytest.raises(InvalidModulusError, match="must be prime, got 9"):
        build_poly_quotient(9, [0, 1])  # an odd composite
    with pytest.raises(InvalidPolynomialError):
        build_poly_quotient(2, [1])  # degree 0
    with pytest.raises(InvalidPolynomialError):
        build_poly_quotient(2, [2, 1])  # coefficient out of range
    with pytest.raises(InvalidPolynomialError):
        build_poly_quotient(3, [1, 1, 2])  # not monic


def test_poly_quotient_checks_the_order_cap_before_primality(monkeypatch):
    # trial division of 10^18 + 3, a prime, takes about 5 * 10^8 steps
    def no_primality_test(p):
        raise AssertionError(f"primality of {p} tested before the order cap")

    monkeypatch.setattr(rings, "_is_prime", no_primality_test)
    with pytest.raises(CapExceededError, match="exceeds the cap"):
        build_poly_quotient(10**18 + 3, [0, 1])
    with pytest.raises(CapExceededError):
        build_poly_quotient(2, [1] * 14)  # order 2^13


def test_direct_product_z2_z3():
    r = direct_product(build_zn(2), build_zn(3))
    assert r.order == 6
    assert r.spec == "prod(Zn:2,Zn:3)"
    # nonzero zero-divisors are the pairs with exactly one zero coordinate
    assert len(zero_divisors(r)) == 4
    assert r.element_names[0] == "(0,0)"
    assert r.element_names[5] == "(1,2)"


def test_direct_product_of_fields_is_reduced():
    assert is_reduced(direct_product(build_zn(2), build_zn(2)))


def test_direct_product_z4_z2_nilpotents():
    r = direct_product(build_zn(4), build_zn(2))
    # row-major pair indices: (0,0) -> 0, (2,0) -> 4
    assert members(nilpotents(r)) == {0, 4}
    assert not is_reduced(r)


def test_total_quotient_ring_is_identity_on_finite_rings():
    for r in (build_zn(6), build_zn(4), build_poly_quotient(2, [1, 1, 1])):
        assert total_quotient_ring(r) is r


def test_total_quotient_ring_flags_regular_nonunit():
    base = build_zn(4)
    mul = base.mul_table.copy()
    mul[3] = [0, 3, 3, 3]
    mul[:, 3] = [0, 3, 3, 3]
    corrupt = FiniteRing(base.add_table, mul, base.element_names, "corrupt:Zn:4", zero=0, one=1)
    with pytest.raises(RingConsistencyError, match="^element 3 is neither a unit nor a zero-divisor$"):
        total_quotient_ring(corrupt)
    with pytest.raises(RingConsistencyError):
        validate_ring_axioms(corrupt)


def test_total_quotient_ring_names_the_least_regular_nonunit_past_the_first_block():
    # Z_512 has 256 regular rows, the odd x, and a row block holds 128 of
    # them: 301 and 459 lie in the second block, and 301 is the least
    base = build_zn(512)
    assert len(list(rings.row_blocks(256, 512))) == 2
    mul = base.mul_table.copy()
    for x in (459, 301):
        # drop the 1 from row x: x stays regular (0 only at column 0) and
        # is no longer a unit; no other row changes
        mul[x, pow(x, -1, 512)] = 3
    corrupt = FiniteRing(base.add_table, mul, base.element_names, "corrupt:Zn:512", zero=0, one=1)
    assert not corrupt.zero_divisor_mask[[301, 459]].any()
    with pytest.raises(RingConsistencyError, match="^element 301 is neither a unit nor a zero-divisor$"):
        total_quotient_ring(corrupt)


def test_ring_leaves_the_callers_tables_writeable():
    base = build_zn(4)
    add, mul = base.add_table.copy(), base.mul_table.copy()
    assert add.dtype == mul.dtype == np.uint8
    r = FiniteRing(add, mul, base.element_names, "Zn:4", zero=0, one=1)
    assert add.flags.writeable and mul.flags.writeable
    assert not (r.add_table.flags.writeable or r.mul_table.flags.writeable)
    assert not (np.shares_memory(add, r.add_table) or np.shares_memory(mul, r.mul_table))
    add[1, 1] = 3  # the caller's table is no longer Z_4's
    assert r.add_table[1, 1] == 2
    # a read-only C-contiguous table already in the table dtype is kept
    kept = FiniteRing(base.add_table, base.mul_table, base.element_names, "Zn:4", zero=0, one=1)
    assert kept.add_table is base.add_table and kept.mul_table is base.mul_table


@pytest.mark.parametrize("spec", ["Zn:2048", "prod(Zn:32,Zn:64)", "polyq:3:1,2,0,0,0,0,0,1"])
def test_builders_hand_their_tables_over_without_a_copy(spec):
    # the two tables and the builder's temporaries, about 2 tables in all;
    # a fresh table that FiniteRing copied would add a third
    tracemalloc.start()
    try:
        r = build_ring(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.order >= 2048
    assert peak < 2.5 * r.add_table.nbytes


def test_every_element_unit_or_zero_divisor():
    for n in range(2, 30):
        r = build_zn(n)
        zset = members(zero_divisors(r))
        units = {x for x in range(n) if any(r.mul_table[x, y] == 1 for y in range(n))}
        assert units == zn_units(n)
        assert units & zset == set()
        assert units | zset == set(range(n))


def test_isomorphism_positive_cases():
    r8 = build_zn(8)
    q, _ = quotient_ring(r8, generate_ideal(r8, [4]))
    assert is_isomorphic_small(q, build_zn(4))
    assert is_isomorphic_small(build_zn(6), build_zn(6))
    assert is_isomorphic_small(direct_product(build_zn(2), build_zn(3)), build_zn(6))


def test_isomorphism_negative_cases():
    # additive orders differ: Z_4 is cyclic, Z_2[x]/(x^2) is not
    assert not is_isomorphic_small(build_zn(4), build_poly_quotient(2, [0, 0, 1]))
    assert not is_isomorphic_small(build_zn(4), direct_product(build_zn(2), build_zn(2)))
    assert not is_isomorphic_small(build_zn(4), build_poly_quotient(2, [1, 1, 1]))
    assert not is_isomorphic_small(build_zn(4), build_zn(8))


def test_isomorphism_cap():
    with pytest.raises(CapExceededError):
        is_isomorphic_small(build_zn(13), build_zn(13))


def test_ring_axioms_on_constructions():
    rings = [
        build_zn(2),
        build_zn(12),
        build_poly_quotient(2, [0, 0, 1]),
        build_poly_quotient(3, [2, 0, 1]),
        build_poly_quotient(2, [1, 1, 0, 1]),
        direct_product(build_zn(4), build_zn(6)),
        direct_product(build_poly_quotient(2, [1, 1, 1]), build_zn(5)),
    ]
    for r in rings:
        validate_ring_axioms(r)


def test_tables_are_immutable():
    r = build_zn(6)
    with pytest.raises(ValueError):
        r.mul_table[0, 0] = 1
    assert isinstance(r.add_table, np.ndarray)


def test_poly_quotient_arithmetic_spot_checks():
    # Z_2[x]/(x^2): x * x = 0, x * (x+1) = x
    r = build_poly_quotient(2, [0, 0, 1])
    x, x1 = 2, 3
    assert r.mul_table[x, x] == 0
    assert r.mul_table[x, x1] == x
    # GF(4): x * x = x+1 for f = x^2+x+1
    f = build_poly_quotient(2, [1, 1, 1])
    assert f.mul_table[2, 2] == 3


def test_poly_quotient_matches_convolution_oracle():
    specs = [e.spec for e in default_catalogue() if e.spec.startswith("polyq:")]
    specs += ["polyq:2:0,0,0,0,0,0,0,0,0,1", "polyq:5:2,0,0,0,1", "polyq:7:3,1,0,1", "polyq:3:0,1"]
    for spec in specs:
        _, p, coeffs = spec.split(":")
        p, coeffs = int(p), [int(c) for c in coeffs.split(",")]
        r = build_poly_quotient(p, coeffs)
        add, mul, names, expected_spec = conv_poly_quotient_tables(p, coeffs)
        assert np.array_equal(r.add_table, add), spec
        assert np.array_equal(r.mul_table, mul), spec
        assert r.element_names == names, spec
        assert r.spec == expected_spec == spec


def test_constructor_rejects_non_integer_tables():
    add = [[0, 1.7], [1.2, 0]]  # truncates to the addition table of Z_2
    with pytest.raises(RingConsistencyError, match="^table entries must be integers"):
        FiniteRing(add, [[0, 0], [0, 1]], ["0", "1"], "float:Zn:2", zero=0, one=1)


def test_constructor_checks_range_before_narrowing():
    # an order-300 ring is stored in uint16, where 65539 would wrap to 3
    base = build_zn(300)
    add = base.add_table.astype(np.int64)
    add[5, 7] = add[7, 5] = 65539
    with pytest.raises(RingConsistencyError, match="^table entries must be element indices"):
        FiniteRing(add, base.mul_table, base.element_names, "wrap:Zn:300", zero=0, one=1)
    narrowed = FiniteRing(base.add_table.astype(np.int64), base.mul_table, base.element_names, "Zn:300", 0, 1)
    assert narrowed.add_table.dtype == np.uint16
    assert np.array_equal(narrowed.add_table, base.add_table)


def test_constructor_rejects_out_of_range_entries_of_signed_and_unsigned_tables():
    # a signed table is checked for negative entries, and every table for
    # entries of n or more
    base = build_zn(300)
    negative = base.mul_table.astype(np.int64)
    negative[5, 7] = negative[7, 5] = -1
    too_large = base.add_table.copy()
    assert too_large.dtype == np.uint16
    too_large[5, 7] = too_large[7, 5] = 300
    for add, mul in ((negative, base.mul_table), (base.add_table, negative), (too_large, base.mul_table), (base.add_table, too_large)):
        with pytest.raises(RingConsistencyError, match="^table entries must be element indices"):
            FiniteRing(add, mul, base.element_names, "bad:Zn:300", zero=0, one=1)


def test_constructor_rejects_bad_orders_shapes_and_identities():
    z2, z3 = build_zn(2), build_zn(3)
    names = ["0", "1"]
    with pytest.raises(InvalidOrderError, match="at least two elements"):
        FiniteRing([[0]], [[0]], ["0"], "one element", zero=0, one=0)
    with pytest.raises(RingConsistencyError, match="square and equally sized"):
        FiniteRing(z2.add_table, z3.mul_table, names, "unequal tables", zero=0, one=1)
    with pytest.raises(RingConsistencyError, match="square and equally sized"):
        FiniteRing(z3.add_table[:2], z3.mul_table[:2], names, "not square", zero=0, one=1)
    for zero, one in ((2, 1), (0, 2), (-1, 1)):
        with pytest.raises(InvalidElementError, match="zero/one must be element indices"):
            FiniteRing(z2.add_table, z2.mul_table, names, "out of range", zero=zero, one=one)
    with pytest.raises(RingConsistencyError, match="zero and one coincide"):
        FiniteRing(z2.add_table, z2.mul_table, names, "zero ring", zero=0, one=0)


def test_is_prime_rejects_one_and_odd_composites():
    # 9, 25 and 49 need the trial divisor d with d * d == n
    assert [n for n in range(1, 200) if rings._is_prime(n)] == list(sympy.primerange(1, 200))
    assert not any(rings._is_prime(n) for n in (1, 9, 15, 25, 49, 91, 121, 169))


def _zn_rows(n):
    """Rows of the int64 tables of Z_n, by % arithmetic."""
    i = np.arange(n, dtype=np.int64)
    return lambda rows: ((rows[:, None] + i) % n, (rows[:, None] * i) % n)


def _pair_rows(m, n):
    """Rows of the int64 tables of Z_m x Z_n on row-major pairs a*n + b."""
    e = np.arange(m * n, dtype=np.int64)
    a, b = e // n, e % n
    return lambda rows: (
        (a[rows, None] + a) % m * n + (b[rows, None] + b) % n,
        (a[rows, None] * a) % m * n + (b[rows, None] * b) % n,
    )


def _horner_rows(p, coeffs):
    add, mul = horner_poly_quotient_tables(p, coeffs)
    return lambda rows: (add[rows], mul[rows])


@pytest.mark.parametrize(
    "spec, dtype, oracle_rows",
    [
        ("Zn:4096", np.uint16, lambda: _zn_rows(4096)),
        ("prod(Zn:16,Zn:16)", np.uint8, lambda: _pair_rows(16, 16)),  # the largest uint8 order
        ("prod(Zn:16,Zn:32)", np.uint16, lambda: _pair_rows(16, 32)),  # ta*32 would wrap in uint8
        ("prod(Zn:61,Zn:67)", np.uint16, lambda: _pair_rows(61, 67)),
        ("polyq:2:1,0,1,1,1,0,0,0,1", np.uint8, lambda: _horner_rows(2, [1, 0, 1, 1, 1, 0, 0, 0, 1])),
        ("polyq:3:1,2,0,0,0,0,0,1", np.uint16, lambda: _horner_rows(3, [1, 2, 0, 0, 0, 0, 0, 1])),
    ],
)
def test_builder_tables_at_dtype_edges(spec, dtype, oracle_rows):
    r = build_ring(spec)
    assert r.add_table.dtype == dtype and r.mul_table.dtype == dtype
    assert r.add_table.flags.c_contiguous and r.mul_table.flags.c_contiguous
    rows_of = oracle_rows()
    for lo in range(0, r.order, 256):  # row blocks keep the int64 oracle small
        rows = np.arange(lo, min(r.order, lo + 256))
        add, mul = rows_of(rows)
        assert np.array_equal(r.add_table[rows], add), (spec, lo)
        assert np.array_equal(r.mul_table[rows], mul), (spec, lo)


def test_table_mask_over_several_row_blocks():
    r = build_zn(300)  # 218 rows per block, so the last block is partial
    mask = generate_ideal(r, [6]).mask
    for table in (r.mul_table, r.add_table, r.mul_table[[3, 5, 299]]):
        assert np.array_equal(table_mask(table, mask), mask[table.astype(np.int64)])


def test_names_built_on_first_read_equal_eager_names_on_the_default_catalogue():
    for entry in default_catalogue():
        node = parse_ring_spec(entry.spec)
        ring = build_ring(node)
        assert "element_names" not in vars(ring), entry.spec
        # quotients first, so that each takes its names from a ring whose
        # own names are not built yet
        pairs = [(i, *quotient_ring(ring, i)) for i in all_ideals(ring) if i.is_proper and not i.is_zero]
        graphs = [gamma_ideal(ring, i) for i, _, _ in pairs]
        eager = eager_element_names(node)
        for (ideal, q, cmap), gi in zip(pairs, graphs):
            assert q.element_names == eager_quotient_names(ring, cmap), (entry.spec, ideal)
            assert gi.to_json_obj(ring.element_names)["vertices"] == [eager[v] for v in gi.vertices]
        assert ring.element_names == eager, entry.spec
        assert vars(ring)["element_names"] is ring.element_names


def test_names_are_length_checked_when_given_and_when_built():
    z2 = build_zn(2)
    with pytest.raises(RingConsistencyError, match="one display name per element"):
        FiniteRing(z2.add_table, z2.mul_table, ("0",), "short:Zn:2", zero=0, one=1)
    lazy = FiniteRing(z2.add_table, z2.mul_table, lambda: ("0",), "short:Zn:2", zero=0, one=1)
    with pytest.raises(RingConsistencyError, match="one display name per element"):
        lazy.element_names
    named = FiniteRing(z2.add_table, z2.mul_table, ["zero", "one"], "named:Zn:2", zero=0, one=1)
    assert named.element_names == ("zero", "one")


def test_derived_rings_hold_no_reference_to_their_source_rings():
    # each derived ring's names are read only after its sources are gone
    a, b = build_zn(2), build_zn(4)
    p = direct_product(a, b)
    sources = [weakref.ref(a), weakref.ref(b)]
    del a, b
    gc.collect()
    assert [ref() for ref in sources] == [None, None]
    assert p.element_names[:5] == ("(0,0)", "(0,1)", "(0,2)", "(0,3)", "(1,0)")
    q, _ = quotient_ring(p, generate_ideal(p, [2]))
    source = weakref.ref(p)
    del p
    gc.collect()
    assert source() is None
    assert q.element_names == ("(0,0)+I", "(0,1)+I", "(1,0)+I", "(1,1)+I")
