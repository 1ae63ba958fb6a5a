"""Ring-spec grammar: parsing, canonical formatting, build semantics."""

import pytest

from zdglab import (
    CapExceededError,
    ImproperIdealError,
    InvalidElementError,
    SpecParseError,
    build_ring,
    build_zn,
    format_spec,
    parse_ring_spec,
    zero_divisors,
)
from zdglab.specs import PolyqNode, ProdNode, QuotNode, ZnNode

from oracles import is_isomorphic_small, members

ROUND_TRIP_CORPUS = [
    "Zn:2",
    "Zn:100",
    "prod(Zn:2,Zn:3)",
    "prod(prod(Zn:2,Zn:2),Zn:3)",
    "polyq:2:0,0,1",
    "polyq:5:3,2,1",
    "quot(Zn:12;6)",
    "quot(prod(Zn:4,Zn:2);4,1)",
    "quot(polyq:2:0,0,1;2)",
    "quot(Zn:12;6,6)",
]


def test_parse_zn():
    node = parse_ring_spec("Zn:12")
    assert node == ZnNode(12)
    assert format_spec(node) == "Zn:12"


def test_parse_is_whitespace_insensitive():
    node = parse_ring_spec(" prod( Zn:2 , Zn:3 ) ")
    assert node == ProdNode(ZnNode(2), ZnNode(3))
    assert format_spec(node) == "prod(Zn:2,Zn:3)"
    assert format_spec(parse_ring_spec("quot( Zn:12 ; 6 )")) == "quot(Zn:12;6)"
    assert parse_ring_spec("polyq:2: 1 , 1 , 1") == PolyqNode(2, (1, 1, 1))


def test_round_trip_is_a_fixpoint():
    for text in ROUND_TRIP_CORPUS:
        node = parse_ring_spec(text)
        canonical = format_spec(node)
        again = parse_ring_spec(canonical)
        assert again == node
        assert format_spec(again) == canonical


def test_parse_quot_node():
    node = parse_ring_spec("quot(Zn:12;6)")
    assert node == QuotNode(ZnNode(12), (6,))
    ring = build_ring(node)
    assert ring.order == 6
    assert ring.spec == "quot(Zn:12;6)"
    assert members(zero_divisors(ring)) == {0, 2, 3, 4}


def test_parse_errors_carry_positions():
    cases = [
        ("Zn:1", 3, "at least 2"),
        ("Zn:x", 3, "integer"),
        ("polyq:4:1,1", 6, "prime"),
        ("polyq:9:0,1", 6, "prime"),  # an odd composite
        ("polyq:2:1,2", 10, "out of range"),
        ("polyq:2:1", 8, "degree"),
        ("polyq:2:1,0", 10, "monic"),
        ("prod(Zn:2;Zn:3)", 9, "','"),
        ("Zn:6x", 4, "trailing"),
        ("", 0, "ring spec"),
        ("quot(Zn:8;)", 10, "integer"),
    ]
    for text, pos, fragment in cases:
        with pytest.raises(SpecParseError) as err:
            parse_ring_spec(text)
        assert err.value.position == pos, text
        assert fragment in str(err.value), text


def test_build_nested_quotient_of_product():
    ring = build_ring("quot(prod(Zn:4,Zn:2);4,1)")
    # the ideal generated by (2,0) and (0,1) has four elements
    assert ring.order == 2


def test_build_quotient_ring_isomorphic_to_z4():
    ring = build_ring("quot(Zn:8;4)")
    assert is_isomorphic_small(ring, build_zn(4))


def test_build_errors():
    with pytest.raises(ImproperIdealError):
        build_ring("quot(Zn:6;1)")
    with pytest.raises(InvalidElementError):
        build_ring("quot(Zn:6;7)")
    with pytest.raises(CapExceededError):
        build_ring("Zn:4097")
    assert build_ring("Zn:4097", max_order=4097).order == 4097


def test_ring_spec_field_is_canonical():
    for text in ROUND_TRIP_CORPUS:
        ring = build_ring(text)
        assert ring.spec == format_spec(parse_ring_spec(text))


def test_quotient_by_zero_ideal_collapses_to_base_spec():
    # R/{0} is R itself, so the built ring keeps the base spec
    assert build_ring("quot(Zn:12;0)").spec == "Zn:12"
    # and the parser spells such a spec as its base, so it has one spelling
    assert parse_ring_spec("quot(Zn:12;0,0)") == ZnNode(12)
    assert format_spec(parse_ring_spec("quot(quot(Zn:24;12);0)")) == "quot(Zn:24;12)"
    assert format_spec(parse_ring_spec("quot(Zn:12;0,6)")) == build_ring("quot(Zn:12;0,6)").spec == "quot(Zn:12;0,6)"
