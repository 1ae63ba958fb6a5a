"""Table facts cached once per ring and once per ideal, the von Neumann
scan, the scan of the pairs x <= y behind the vertex sets, the quotient
tables, the products of Z_n and the walk of ``all_ideals``, against the
per-call scans, fills and loops in ``oracles.py`` that they replaced.

Covers every (ring, proper ideal) pair that ``verify`` analyzes on the
default catalogue and on ``perfbench/scale.cat`` (Gamma(Z_4096) included),
and every proper ideal of the square-zero rings, whose maximal ideals are
not principal.
"""

import dataclasses
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from zdglab import (
    all_ideals,
    direct_product,
    analyze_pair,
    build_ring,
    build_zn,
    default_catalogue,
    gamma,
    gamma_ideal,
    generate_ideal,
    is_prime,
    is_von_neumann_regular,
    nilpotents,
    parse_catalogue_text,
    quotient_ring,
    total_quotient_ring,
    zero_divisors,
)
from zdglab import Ideal, graphs, rings
from zdglab.rings import row_blocks, table_mask

from oracles import (
    column_quotient_tables,
    column_von_neumann_regular,
    dense_gamma,
    dense_gamma_ideal,
    every_sum_all_ideals,
    full_row_vertex_mask,
    gather_von_neumann_regular,
    loop_von_neumann_regular,
    pairwise_all_ideals,
    relabelled_ring,
    remainder_zn_mul_table,
    scan_nilpotents,
    scan_units,
    scan_zero_divisors,
    square_zero_ring,
    triple_scan_is_prime,
)

SCALE_CATALOGUE = Path(__file__).resolve().parents[1] / "perfbench" / "scale.cat"


def _pairs(entries):
    for entry in entries:
        r = build_ring(entry.spec)
        if entry.ideal_filters is None:
            ideals = [i for i in all_ideals(r) if i.is_proper]
        else:
            ideals = [generate_ideal(r, gens) for gens in entry.ideal_filters]
        for ideal in ideals:
            yield r, ideal


def _assert_graph(g, expected):
    vertices, adj = expected
    assert g.vertices == vertices
    assert np.array_equal(g.adj, adj)


def _assert_ring_facts(r):
    zd, nil = scan_zero_divisors(r), scan_nilpotents(r)
    assert np.array_equal(r.zero_divisor_mask, zd), r.spec
    assert zero_divisors(r) == tuple(np.flatnonzero(zd).tolist()), r.spec
    assert (scan_units(r) | zd).all(), r.spec
    assert total_quotient_ring(r) is r, r.spec
    assert np.array_equal(r.power_array == r.zero, nil), r.spec
    assert nilpotents(r) == tuple(np.flatnonzero(nil).tolist()), r.spec
    assert is_von_neumann_regular(r) == column_von_neumann_regular(r), r.spec
    assert is_von_neumann_regular(r) == gather_von_neumann_regular(r), r.spec


def _assert_pair(r, ideal):
    assert is_prime(ideal) == triple_scan_is_prime(ideal), (r.spec, ideal)
    assert np.array_equal(ideal.vertex_mask, full_row_vertex_mask(ideal)), (r.spec, ideal)
    _assert_graph(gamma_ideal(r, ideal), dense_gamma_ideal(r, ideal))
    q, cmap = quotient_ring(r, ideal)
    add, mul, expected_map = column_quotient_tables(r, ideal)
    assert np.array_equal(cmap, expected_map), (r.spec, ideal)
    assert np.array_equal(q.add_table, add) and np.array_equal(q.mul_table, mul), (r.spec, ideal)
    _assert_graph(gamma(q), dense_gamma(q))
    _assert_ring_facts(r)
    _assert_ring_facts(q)


def test_scans_agree_on_default_catalogue():
    pairs = list(_pairs(default_catalogue()))
    assert len(pairs) == 1260
    for r, ideal in pairs:
        _assert_pair(r, ideal)


def test_scans_agree_on_scale_catalogue():
    pairs = list(_pairs(parse_catalogue_text(SCALE_CATALOGUE.read_text(encoding="utf-8"))))
    assert len(pairs) == 12
    assert max(len(gamma(quotient_ring(r, i)[0]).vertices) for r, i in pairs) == 2047  # Gamma(Z_4096)
    for r, ideal in pairs:
        _assert_pair(r, ideal)


def test_scans_agree_on_square_zero_rings():
    for k in range(1, 6):
        r = square_zero_ring(k)
        for ideal in all_ideals(r):
            if ideal.is_proper:
                _assert_pair(r, ideal)


def test_quotient_by_a_large_ideal_matches_the_column_reads():
    r = build_zn(4096)
    ideal = generate_ideal(r, [2])
    q, cmap = quotient_ring(r, ideal)
    add, mul, expected_map = column_quotient_tables(r, ideal)
    assert q.order == 2
    assert np.array_equal(cmap, expected_map)
    assert np.array_equal(q.add_table, add) and np.array_equal(q.mul_table, mul)


def test_quotient_tables_are_gathered_in_their_own_dtype():
    # each table is gathered straight into the quotient's dtype and kept
    # by FiniteRing as it is, with no quotient-sized intp temporary
    r = build_zn(4096)
    tracemalloc.start()
    try:
        q, cmap = quotient_ring(r, generate_ideal(r, [2048]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.order == 2048 and cmap.dtype == np.intp
    assert q.add_table.dtype == q.mul_table.dtype == np.min_scalar_type(q.order - 1)
    assert peak < 2 * (q.add_table.nbytes + q.mul_table.nbytes)


@pytest.mark.parametrize("cells", [1, 100, rings._BLOCK_CELLS])
def test_pair_scan_matches_the_full_row_scan_at_every_block_size(monkeypatch, cells):
    # one row a block, a few rows a block, and the real size: each block
    # starting at x0 reads only the columns from x0 on
    monkeypatch.setattr(rings, "_BLOCK_CELLS", cells)
    rings_ = [build_ring(e.spec) for e in default_catalogue()]
    rings_ += [square_zero_ring(k) for k in range(1, 6)]
    for r in rings_:
        for ideal in all_ideals(r):
            assert np.array_equal(ideal.vertex_mask, full_row_vertex_mask(ideal)), (cells, r.spec, ideal)
    f2 = _f2_power(8)  # Gamma(F_2^8): every element but zero and the identity is a vertex
    zero = generate_ideal(f2, [])
    assert np.array_equal(zero.vertex_mask, full_row_vertex_mask(zero))
    assert np.count_nonzero(zero.vertex_mask) == 254
    assert is_von_neumann_regular(f2) and gather_von_neumann_regular(f2)


@pytest.mark.parametrize("n", [2, 255, 256, 257, 1155, 4096])
def test_zn_products_by_floor_division_match_the_remainder(n):
    # first-block products in uint8 (n = 2), uint16 (255, 256) and uint32
    # (257 on), the later blocks' sums in uint16 (257 on); tables in uint8
    # up to 256 and uint16 beyond
    mul = build_zn(n).mul_table
    assert np.array_equal(mul, remainder_zn_mul_table(n))
    i = np.arange(n, dtype=np.int64)
    for lo in range(0, n, 256):  # row blocks keep the int64 products small
        assert np.array_equal(mul[lo : lo + 256], np.multiply.outer(i[lo : lo + 256], i) % n), (n, lo)


def test_membership_tests_match_the_plain_gather_for_every_kind_of_subset():
    # zero and one moved off 0 and 1; 600 elements make 110 rows a block
    r = relabelled_ring(build_ring("prod(Zn:4,Zn:150)"), seed=0)
    assert r.zero > 1 and r.one > 1
    one_only = np.arange(r.order) == r.one
    nilpotent = int(np.flatnonzero((r.power_array == r.zero) & (np.arange(r.order) != r.zero))[0])
    zero_ideal, ideal = generate_ideal(r, []), generate_ideal(r, [nilpotent])
    subsets = [zero_ideal.mask, one_only, ideal.mask, np.zeros(r.order, dtype=bool)]
    assert [int(np.count_nonzero(s)) for s in subsets] == [1, 1, 10, 0]
    assert np.count_nonzero(ideal.vertex_mask) == 510  # (x) is not prime
    for subset in subsets:
        products = subset[r.mul_table.astype(np.intp)]
        assert np.array_equal(table_mask(r.mul_table, subset), products)
        assert np.array_equal(table_mask(r.add_table, subset), subset[r.add_table.astype(np.intp)])
        vertices = (products & ~subset).any(axis=1) & ~subset
        # the pair scan and the graph builder behind Ideal and gamma_ideal,
        # run on a subset that need not be an ideal
        scanned = Ideal.vertex_mask.func(SimpleNamespace(ring=r, mask=subset))
        assert np.array_equal(scanned, vertices), np.flatnonzero(subset)[:3]
        varr = np.flatnonzero(vertices)
        adj = products[np.ix_(varr, varr)]
        np.fill_diagonal(adj, False)
        _assert_graph(graphs._ideal_graph(r, subset, vertices), (tuple(varr.tolist()), adj))
    for i in (zero_ideal, ideal):
        products = i.mask[r.mul_table.astype(np.intp)]
        vertices = (products & ~i.mask).any(axis=1) & ~i.mask
        assert np.array_equal(i.vertex_mask, vertices)
        varr = np.flatnonzero(vertices)
        adj = products[np.ix_(varr, varr)]
        np.fill_diagonal(adj, False)
        _assert_graph(gamma_ideal(r, i), (tuple(varr.tolist()), adj))
    assert np.count_nonzero(zero_ideal.vertex_mask) == np.count_nonzero(r.zero_divisor_mask) - 1


def test_containment_skip_keeps_ideals_and_generators():
    rings = [build_ring(e.spec) for e in default_catalogue()]
    rings += [square_zero_ring(k) for k in range(1, 6)]
    for r in rings:
        got = [(i.sorted_members(), i.generators) for i in all_ideals(r)]
        assert got == [(i.sorted_members(), i.generators) for i in every_sum_all_ideals(r)], r.spec


def test_blocked_scans_accept_tables_without_columns():
    mask = np.array([True, False])
    for shape in ((0, 0), (3, 0)):
        table = np.empty(shape, dtype=np.uint8)
        assert table_mask(table, mask).shape == shape
    assert list(row_blocks(3, 0)) == [slice(0, 3)]
    assert list(row_blocks(0, 0)) == []
    assert list(row_blocks(500, 300, 100)) == [slice(100, 318), slice(318, 500)]  # 218 rows a block


def test_gamma_ideal_of_a_prime_ideal_is_empty():
    r = build_zn(512)
    ideal = generate_ideal(r, [2])
    assert is_prime(ideal)
    g = gamma_ideal(r, ideal)
    assert g.vertices == () and g.adj.shape == (0, 0)


def test_cached_facts_are_read_only_and_linear():
    # analyze the pair verify analyzes for Zn:4096 [], then look at every
    # fact it left cached: none may be order x order or writable
    ring = build_zn(4096)
    ideal = generate_ideal(ring, [])
    analysis = analyze_pair(ring, ideal)
    assert analysis.quotient is ring
    fields = {f.name for f in dataclasses.fields(ideal)}
    ideal_facts = {k: v for k, v in vars(ideal).items() if k not in fields}
    ring_facts = {k: v for k, v in vars(ring).items() if k not in vars(build_zn(2))}
    assert set(ring_facts) == {"zero_divisor_mask", "power_array"}
    assert set(ideal_facts) == {"vertex_mask", "radical_mask"}
    for fact in (*ring_facts.values(), *ideal_facts.values()):
        assert isinstance(fact, np.ndarray)
        assert fact.shape == (ring.order,)
        assert not fact.flags.writeable


def _scale_rings():
    for entry in parse_catalogue_text(SCALE_CATALOGUE.read_text(encoding="utf-8")):
        yield build_ring(entry.spec)


def _non_principal_rings():
    """The rings of ``test_checks_on_non_principal_ideals``."""
    sq = square_zero_ring
    return [
        sq(2), sq(3), sq(4),
        direct_product(sq(2), build_zn(2)), direct_product(sq(2), build_zn(3)), direct_product(sq(3), build_zn(2)),
    ]


def _f2_power(k):
    spec = "Zn:2"
    for _ in range(k - 1):
        spec = f"prod(Zn:2,{spec})"
    return build_ring(spec)


def test_vnr_block_scan_matches_the_row_loop():
    rings_seen = quotients = 0
    for entry in default_catalogue():
        r = build_ring(entry.spec)
        assert is_von_neumann_regular(r) == loop_von_neumann_regular(r), r.spec
        rings_seen += 1
        for ideal in all_ideals(r):
            if ideal.is_proper and not ideal.is_zero:
                q, _ = quotient_ring(r, ideal)
                assert is_von_neumann_regular(q) == loop_von_neumann_regular(q), q.spec
                quotients += 1
    assert (rings_seen, quotients) == (356, 904)
    verdicts = {}
    for r in _scale_rings():
        verdicts[r.spec] = is_von_neumann_regular(r)
        assert verdicts[r.spec] == loop_von_neumann_regular(r), r.spec
    assert verdicts["prod(Zn:61,Zn:67)"] and verdicts["Zn:1155"] and not verdicts["Zn:4096"]


def _vnr_blocks_read(monkeypatch, r):
    """(is_von_neumann_regular(r), the number of row blocks it read)."""
    read = []

    def counting(stop, width, start=0):
        for block in row_blocks(stop, width, start):
            read.append(block)
            yield block

    with monkeypatch.context() as m:
        m.setattr(rings, "row_blocks", counting)
        regular = is_von_neumann_regular(r)
    return regular, len(read)


def test_vnr_block_scan_stops_at_the_first_block_with_a_non_regular_row(monkeypatch):
    # 2 is not regular in Z_4096, and lies in the first block of 16 rows
    assert len(list(row_blocks(4096, 4096))) == 256
    assert _vnr_blocks_read(monkeypatch, build_zn(4096)) == (False, 1)
    # in Z_4 x Z_251 (65 rows a block) the first non-regular element is
    # (2, 0) = 502, in the eighth of 16 blocks
    r = build_ring("prod(Zn:4,Zn:251)")
    assert len(list(row_blocks(r.order, r.order))) == 16
    assert _vnr_blocks_read(monkeypatch, r) == (False, 502 // 65 + 1)
    # a regular ring reads every block
    r = build_zn(1155)
    assert _vnr_blocks_read(monkeypatch, r) == (True, len(list(row_blocks(r.order, r.order))))


def test_all_ideals_matches_the_pairwise_loop():
    rings_ = [build_ring(e.spec) for e in default_catalogue()]
    rings_ += _non_principal_rings()
    rings_.append(_f2_power(8))
    non_principal = 0
    for r in rings_:
        got = all_ideals(r)
        expected = pairwise_all_ideals(r)
        assert [i.generators for i in got] == [i.generators for i in expected], r.spec
        assert all(np.array_equal(a.mask, b.mask) for a, b in zip(got, expected)), r.spec
        non_principal += sum(len(i.generators) > 1 for i in got)
    assert non_principal > 0  # the sum branch finds new ideals
    assert len(all_ideals(_f2_power(8))) == 256
