"""Property tests of the one input grammar: spec trees, catalogue lines and
generator lists round-trip through their formatted text, and errors point
at the offending token."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdglab import (
    CapExceededError,
    ImproperIdealError,
    InvalidElementError,
    SpecParseError,
    build_ring,
    format_spec,
    parse_catalogue_line,
    parse_generators,
    parse_ring_spec,
)
from zdglab.specs import PolyqNode, ProdNode, QuotNode, ZnNode

# derandomized and without an example database: tier-1 stays deterministic
# and leaves no files behind
GRAMMAR = settings(derandomize=True, database=None, deadline=None)

INDEX = st.integers(0, 10**6)
WHITESPACE = st.text(st.sampled_from(" \t\n\r\x0b\x0c\u00a0\u2003\u3000"), max_size=3)
LINE_SPACE = st.text(st.sampled_from(" \t"), max_size=3)


def _polyq(p):
    return st.lists(st.integers(0, p - 1), min_size=1, max_size=4).map(lambda low: PolyqNode(p, (*low, 1)))


LEAVES = st.builds(ZnNode, st.integers(2, 10**6)) | st.sampled_from([2, 3, 5, 7, 101]).flatmap(_polyq)
SPECS = st.recursive(
    LEAVES,
    lambda inner: st.builds(ProdNode, inner, inner)
    | st.builds(QuotNode, inner, st.lists(INDEX, min_size=1, max_size=3).map(tuple)),
    max_leaves=6,
)
FILTERS = st.lists(st.lists(st.integers(0, 50), max_size=3).map(tuple), max_size=4)


# trees whose rings are small enough to build, with quot generators that
# are often in range and often zero
SMALL_SPECS = st.recursive(
    st.builds(ZnNode, st.integers(2, 12)) | st.sampled_from([2, 3]).flatmap(_polyq),
    lambda inner: st.builds(ProdNode, inner, inner)
    | st.builds(QuotNode, inner, st.lists(st.integers(0, 7), min_size=1, max_size=2).map(tuple)),
    max_leaves=4,
)


def _canonical(node):
    """The drawn tree as the parser returns it: a repeated quot generator
    is dropped, first occurrence kept, and a quot whose only generator left
    is 0 is its base."""
    if isinstance(node, ProdNode):
        return ProdNode(_canonical(node.left), _canonical(node.right))
    if isinstance(node, QuotNode):
        base, gens = _canonical(node.base), tuple(dict.fromkeys(node.generators))
        return base if gens == (0,) else QuotNode(base, gens)
    return node


def _join(data, items, sep, space):
    return sep.join(f"{data.draw(space)}{item}{data.draw(space)}" for item in items)


@GRAMMAR
@given(SPECS, FILTERS, st.data())
def test_catalogue_line_round_trip(node, filters, data):
    groups = "".join(f"{data.draw(LINE_SPACE)}[{_join(data, f, ',', LINE_SPACE)}]" for f in filters)
    text = data.draw(LINE_SPACE) + format_spec(node) + groups + data.draw(LINE_SPACE)
    expected = tuple(dict.fromkeys(filters)) if filters else None
    assert parse_catalogue_line(text) == (_canonical(node), expected)
    assert parse_ring_spec(format_spec(node)) == _canonical(node)


@GRAMMAR
@given(SMALL_SPECS)
def test_built_ring_has_zero_at_0_and_reports_the_parsed_spec(node):
    # zero at index 0 is what lets the parser read quot(R;0) as R
    try:
        ring = build_ring(node, max_order=64)
    except (CapExceededError, ImproperIdealError, InvalidElementError):
        return
    assert ring.zero == 0
    assert ring.spec == format_spec(parse_ring_spec(format_spec(node)))


@GRAMMAR
@given(st.lists(INDEX, max_size=6), st.data())
def test_generators_round_trip(gens, data):
    text = _join(data, gens, ",", WHITESPACE) if gens else data.draw(WHITESPACE)
    assert parse_generators(text) == tuple(gens)


@GRAMMAR
@given(st.lists(INDEX, min_size=1, max_size=6), st.data())
def test_generator_error_offset_points_at_token(gens, data):
    bad = data.draw(st.integers(0, len(gens) - 1))
    token = data.draw(st.sampled_from(["x", "-1", "+3", "]", "²"]))
    pieces = [str(g) for g in gens]
    pieces[bad] = token
    offset = len(",".join(pieces[:bad])) + (bad > 0)
    with pytest.raises(SpecParseError) as err:
        parse_generators(",".join(pieces))
    assert err.value.position == offset


def test_polyq_left_factor_of_prod():
    # the comma after a polyq coefficient list may separate prod's operands
    node = parse_ring_spec("prod(polyq:2:1,1, Zn:3)")
    assert node == ProdNode(PolyqNode(2, (1, 1)), ZnNode(3))
    assert format_spec(node) == "prod(polyq:2:1,1,Zn:3)"
    assert build_ring(node).order == 6


def test_catalogue_line_errors_carry_offsets():
    cases = [
        ("Zn:8 [-1]", 6, "integer"),
        ("Zn:8 [+3]", 6, "integer"),
        ("Zn:8 [4] x", 9, "trailing"),
        ("Zn:8 [4,]", 8, "integer"),
        ("Zn:8 [4 [2]", 8, "']'"),
        ("Zn:²", 3, "integer"),
        ("Zn:8 [٣]", 6, "integer"),
        ("prod(polyq:2:1,1,x)", 17, "integer"),
    ]
    for text, pos, fragment in cases:
        with pytest.raises(SpecParseError) as err:
            parse_catalogue_line(text)
        assert err.value.position == pos, text
        assert fragment in str(err.value), text


def test_integers_longer_than_nine_digits_are_rejected_at_their_offset():
    # 5000 digits exceed int()'s default digit limit; a 19-digit polyq
    # modulus would otherwise be trial-divided for hours
    cases = [
        ("Zn:" + "9" * 5000, 3),
        ("polyq:1000000000000000003:0,1", 6),
        ("polyq:3:1,0000000000,1", 10),
        ("Zn:8 [2] [1234567890]", 10),
    ]
    for text, pos in cases:
        with pytest.raises(SpecParseError) as err:
            parse_catalogue_line(text)
        assert err.value.position == pos, text[:40]
        assert "9 digits" in str(err.value)
    assert parse_ring_spec("Zn:999999999") == ZnNode(999999999)
    assert parse_generators("000000007") == (7,)
