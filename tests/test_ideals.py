"""Ideal generation, enumeration, radicals, primality, quotients."""

import tracemalloc

import numpy as np
import pytest

from zdglab import (
    CapExceededError,
    ImproperIdealError,
    Ideal,
    InvalidElementError,
    all_ideals,
    build_ring,
    build_zn,
    default_catalogue,
    direct_product,
    generate_ideal,
    is_prime,
    is_radical,
    is_reduced,
    quotient_ring,
    radical,
    zero_divisors,
)

from oracles import (
    brute_force_ideals,
    contains,
    is_isomorphic_small,
    members,
    relabelled_ring,
    set_all_ideals,
    set_generate_ideal,
    set_is_prime,
    set_radical,
    square_zero_ring,
    zn_ideal,
)


def test_generate_ideal_principal():
    r8 = build_zn(8)
    assert members(generate_ideal(r8, [4])) == {0, 4}
    assert members(generate_ideal(r8, [2])) == {0, 2, 4, 6}
    assert zn_ideal(8, [4]) == {0, 4}
    assert zn_ideal(8, [2]) == {0, 2, 4, 6}


def test_generate_ideal_empty_is_zero_ideal():
    r = build_zn(10)
    i = generate_ideal(r, [])
    assert members(i) == {0}
    assert i.is_zero and i.is_proper
    assert i.generators == ()


def test_generate_ideal_multiple_generators():
    r = build_zn(12)
    assert members(generate_ideal(r, [4, 6])) == {0, 2, 4, 6, 8, 10}
    assert zn_ideal(12, [4, 6]) == {0, 2, 4, 6, 8, 10}


def test_generate_ideal_rejects_bad_index():
    with pytest.raises(InvalidElementError):
        generate_ideal(build_zn(6), [6])


def test_ideal_rejects_a_mask_of_the_wrong_shape_or_without_zero():
    r = build_zn(6)
    with pytest.raises(InvalidElementError, match=r"must have shape \(6,\), got \(5,\)"):
        Ideal(r, np.ones(5, dtype=bool), ())
    without_zero = np.arange(6) == 3
    with pytest.raises(InvalidElementError, match="must contain zero"):
        Ideal(r, without_zero, (3,))


def test_all_ideals_holds_no_table_sized_temporary():
    # the principal-mask matrix is scattered one row block at a time: its
    # 16 MiB and small blocks, not an order^2 intp index (128 MiB)
    r = build_zn(4096)
    tracemalloc.start()
    try:
        ideals = all_ideals(r, max_order=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ideals) == 13  # the divisors of 2^12
    assert peak < (r.add_table.nbytes + r.mul_table.nbytes) / 2


def test_all_ideals_zn12():
    # ideals of Z_12 are the (d) for d | 12
    ideals = all_ideals(build_zn(12))
    assert len(ideals) == 6
    assert [sorted(members(i)) for i in ideals] == [
        [0],
        [0, 6],
        [0, 4, 8],
        [0, 3, 6, 9],
        [0, 2, 4, 6, 8, 10],
        list(range(12)),
    ]
    assert [i.generators for i in ideals] == [(0,), (6,), (4,), (3,), (2,), (1,)]


def test_all_ideals_field_and_product():
    assert len(all_ideals(build_zn(7))) == 2
    assert len(all_ideals(direct_product(build_zn(2), build_zn(2)))) == 4


def test_all_ideals_match_divisors_of_n():
    def tau(n):
        return sum(1 for d in range(1, n + 1) if n % d == 0)

    for n in range(2, 40):
        ideals = all_ideals(build_zn(n))
        assert len(ideals) == tau(n), n
        for i in ideals:
            assert members(generate_ideal(build_zn(n), i.generators)) == members(i)


def test_all_ideals_are_valid_and_duplicate_free():
    for r in (build_zn(24), direct_product(build_zn(4), build_zn(6))):
        ideals = all_ideals(r)
        seen = set()
        for i in ideals:
            ms = members(i)
            assert ms not in seen
            seen.add(ms)
            assert r.zero in ms
            for a in ms:
                for b in ms:
                    assert int(r.add_table[a, b]) in ms
                for s in range(r.order):
                    assert int(r.mul_table[s, a]) in ms


def test_all_ideals_cap():
    with pytest.raises(CapExceededError):
        all_ideals(build_zn(300))
    all_ideals(build_zn(300), max_order=300)


def matches_set_oracle(r):
    """all_ideals(r), after checking it and each radical, is_radical,
    is_prime and generate_ideal round trip against the set-based oracles."""
    ideals = all_ideals(r)
    assert [(members(i), i.generators) for i in ideals] == set_all_ideals(r), r.spec
    for i in ideals:
        rad, expected = radical(i), set_radical(r, members(i))
        assert (members(rad), rad.generators) == expected, (r.spec, i)
        assert is_radical(i) == (expected[0] == members(i)), (r.spec, i)
        assert is_prime(i) == set_is_prime(r, members(i)), (r.spec, i)
        again = generate_ideal(r, i.generators)
        assert (members(again), again.generators) == set_generate_ideal(r, i.generators)
    return ideals


def test_mask_ideals_match_set_oracle_on_default_catalogue():
    rings = map(build_ring, (e.spec for e in default_catalogue()))
    assert sum(len(matches_set_oracle(r)) for r in rings) == 1616


def test_mask_ideals_match_set_oracle_beyond_principal_ideal_rings():
    for k in range(2, 6):
        ideals = matches_set_oracle(square_zero_ring(k))
        assert max(len(i.generators) for i in ideals) == k


def test_mask_ideals_match_set_oracle_with_zero_and_one_moved():
    # relabelled_ring puts zero and one at indices above 1
    rings = map(relabelled_ring, [build_ring("prod(Zn:4,Zn:2)"), build_zn(12), square_zero_ring(3)])
    assert [len(matches_set_oracle(r)) for r in rings] == [6, 6, 17]


def test_all_ideals_on_f2_to_the_tenth():
    spec = "Zn:2"
    for _ in range(9):
        spec = f"prod(Zn:2,{spec})"
    r = build_ring(spec)
    ideals = all_ideals(r, max_order=1024)
    assert len(ideals) == 1024
    for i in ideals:
        assert len(i.generators) == 1
        assert np.array_equal(generate_ideal(r, i.generators).mask, i.mask)
    assert sorted(i.generators[0] for i in ideals) == list(range(1024))


def test_all_ideals_match_brute_force_enumeration():
    rings = [r for r in map(build_ring, (e.spec for e in default_catalogue())) if r.order <= 12]
    assert len(rings) >= 50
    rings += [square_zero_ring(k) for k in (1, 2, 3)]
    for r in rings:
        expected = sorted((tuple(sorted(m)) for m in brute_force_ideals(r)), key=lambda t: (len(t), t))
        assert [i.sorted_members() for i in all_ideals(r)] == expected, r.spec


def test_membership_out_of_range_is_false():
    r = build_zn(12)
    i = generate_ideal(r, [6])
    for x in (-1, -6, 12, 18, np.int64(-6), np.int64(12)):
        assert not contains(i, x)
    assert contains(i, 6) and contains(i, np.int64(6)) and not contains(i, 3)
    z = zero_divisors(r)
    assert not contains(z, -2) and not contains(z, 14) and contains(z, 2) and not contains(z, 5)


def test_radical():
    r8 = build_zn(8)
    assert members(radical(generate_ideal(r8, [4]))) == {0, 2, 4, 6}
    assert not is_radical(generate_ideal(r8, [4]))
    r12 = build_zn(12)
    assert members(radical(generate_ideal(r12, [6]))) == {0, 6}
    assert is_radical(generate_ideal(r12, [6]))
    # the whole ring is its own radical
    assert members(radical(generate_ideal(r8, [1]))) == set(range(8))


def test_radical_idempotent_and_extensive():
    for n in (8, 12, 24, 36):
        r = build_zn(n)
        for i in all_ideals(r):
            rad = radical(i)
            assert members(i) <= members(rad)
            assert members(radical(rad)) == members(rad)


def test_is_prime():
    r12 = build_zn(12)
    assert is_prime(generate_ideal(r12, [3]))
    assert not is_prime(generate_ideal(r12, [4]))  # 2*2 = 4 in I, 2 not in I
    assert not is_prime(generate_ideal(r12, [1]))  # prime ideals are proper
    assert not is_prime(generate_ideal(build_zn(6), []))  # 2*3 = 0
    assert is_prime(generate_ideal(build_zn(5), []))  # zero ideal of a field


def test_prime_iff_quotient_has_no_nonzero_zero_divisors():
    for n in (6, 8, 12, 30):
        r = build_zn(n)
        for i in all_ideals(r):
            if not i.is_proper:
                continue
            q, _ = quotient_ring(r, i)
            assert is_prime(i) == (len(zero_divisors(q)) == 1), (n, sorted(members(i)))


def test_quotient_ring_z8_by_4():
    r8 = build_zn(8)
    q, cmap = quotient_ring(r8, generate_ideal(r8, [4]))
    assert q.order == 4
    assert q.element_names == ("0+I", "1+I", "2+I", "3+I")
    assert q.spec == "quot(Zn:8;4)"
    assert len(zero_divisors(q)) == 2
    assert is_isomorphic_small(q, build_zn(4))
    assert [int(cmap[x]) for x in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_quotient_by_zero_ideal_is_the_ring_itself():
    r = build_zn(9)
    q, cmap = quotient_ring(r, generate_ideal(r, []))
    assert q is r
    assert list(cmap) == list(range(9))


def test_quotient_ring_z12_by_6_behaves_like_z6():
    r12 = build_zn(12)
    q, _ = quotient_ring(r12, generate_ideal(r12, [6]))
    assert q.order == 6
    assert len(members(zero_divisors(q)) - {q.zero}) == 3
    assert is_isomorphic_small(q, build_zn(6))


def test_quotient_rejects_improper_ideal():
    r = build_zn(6)
    with pytest.raises(ImproperIdealError):
        quotient_ring(r, generate_ideal(r, [1]))


def test_lagrange_on_quotients():
    for n in (8, 12, 18, 30):
        r = build_zn(n)
        for i in all_ideals(r):
            if i.is_proper:
                q, _ = quotient_ring(r, i)
                assert r.order == len(members(i)) * q.order


def test_reduced_quotient_iff_radical_ideal():
    for n in (8, 12, 24, 36):
        r = build_zn(n)
        for i in all_ideals(r):
            if i.is_proper:
                q, _ = quotient_ring(r, i)
                assert is_reduced(q) == is_radical(i), (n, sorted(members(i)))


def test_element_set_size_is_counted_at_construction(monkeypatch):
    r = build_ring("prod(Zn:4,Zn:6)")
    sets = [*all_ideals(r), zero_divisors(r)]
    sizes = [len(members(s)) for s in sets]

    def recount(*args, **kwargs):
        raise AssertionError("len() recounted the mask")

    monkeypatch.setattr(np, "count_nonzero", recount)
    assert [len(s) for s in sets] == sizes
