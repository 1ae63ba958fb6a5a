"""Table facts cached once per ring and once per ideal, against the
per-call whole-table scans in ``oracles.py`` that they replaced.

Covers every (ring, proper ideal) pair that ``verify`` analyzes on the
default catalogue and on ``perfbench/scale.cat`` (Gamma(Z_4096) included),
and every proper ideal of the square-zero rings, whose maximal ideals are
not principal.
"""

import dataclasses
from pathlib import Path

import numpy as np

from zdglab import (
    all_ideals,
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
    zero_divisors,
)
from zdglab.rings import row_blocks, table_mask, unit_mask

from oracles import (
    column_von_neumann_regular,
    dense_gamma,
    dense_gamma_ideal,
    every_sum_all_ideals,
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
    assert g.vertices == vertices, g.name
    assert np.array_equal(g.adj, adj), g.name


def _assert_ring_facts(r):
    assert np.array_equal(zero_divisors(r).mask, scan_zero_divisors(r)), r.spec
    assert np.array_equal(unit_mask(r), scan_units(r)), r.spec
    assert np.array_equal(nilpotents(r).mask, scan_nilpotents(r)), r.spec
    assert is_von_neumann_regular(r) == column_von_neumann_regular(r), r.spec


def _assert_pair(r, ideal):
    assert is_prime(ideal) == triple_scan_is_prime(ideal), (r.spec, ideal)
    _assert_graph(gamma_ideal(r, ideal), dense_gamma_ideal(r, ideal))
    q, _ = quotient_ring(r, ideal)
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
    assert set(ring._facts) == {"zero_divisor_mask", "unit_mask", "power_array"}
    assert set(ideal_facts) == {"vertex_mask"}
    for fact in (*ring._facts.values(), *ideal_facts.values()):
        assert isinstance(fact, np.ndarray)
        assert fact.shape == (ring.order,)
        assert not fact.flags.writeable
