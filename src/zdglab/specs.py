"""Recursive-descent parser and canonical formatter for ring specs,
catalogue lines and generator lists: the one parser of outside input.

Grammar (whitespace between tokens is ignored):

    spec       := "Zn:" INT
                | "prod(" spec "," spec ")"
                | "polyq:" INT ":" INT ("," INT)*
                | "quot(" spec ";" INT ("," INT)* ")"
    generators := empty | INT ("," INT)*
    line       := spec ("[" generators "]")*

``polyq`` coefficients are constant-term first and must already be reduced
mod p with leading coefficient 1. ``quot`` generators are element indices
of the base ring (products index row-major, polynomial quotients by base-p
digits); a repeated one is dropped, first occurrence kept, and a ``quot``
whose only generator is 0, the zero element of every spec-built ring,
parses as its base, so the parsed spec is the one the built ring reports.
A ``polyq`` coefficient list ends at a comma followed by a spec, so
``prod(polyq:2:1,1,Zn:3)`` is a product.
INT is a run of at most nine ASCII digits 0-9, so no sign is accepted.
Error positions are character offsets into the original string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import ImproperIdealError, SpecParseError
from .ideals import generate_ideal, quotient_ring
from .rings import (
    DEFAULT_MAX_ORDER,
    FiniteRing,
    _is_prime,
    build_poly_quotient,
    build_zn,
    direct_product,
)


@dataclass(frozen=True)
class ZnNode:
    n: int


@dataclass(frozen=True)
class ProdNode:
    left: "SpecNode"
    right: "SpecNode"


@dataclass(frozen=True)
class PolyqNode:
    p: int
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class QuotNode:
    base: "SpecNode"
    generators: tuple[int, ...]


SpecNode = Union[ZnNode, ProdNode, PolyqNode, QuotNode]


def format_spec(node: SpecNode) -> str:
    """Canonical text for a spec tree (no whitespace)."""
    if isinstance(node, ZnNode):
        return f"Zn:{node.n}"
    if isinstance(node, ProdNode):
        return f"prod({format_spec(node.left)},{format_spec(node.right)})"
    if isinstance(node, PolyqNode):
        return f"polyq:{node.p}:{','.join(str(c) for c in node.coeffs)}"
    if isinstance(node, QuotNode):
        gens = ",".join(str(g) for g in node.generators)
        return f"quot({format_spec(node.base)};{gens})"
    raise TypeError(f"not a spec node: {node!r}")


_SPEC_STARTS = ("Zn:", "prod(", "polyq:", "quot(")

# Every INT is an order, a modulus, a coefficient or an element index, all
# below 10^9 for any ring whose tables fit in memory. The cap bounds int()
# and the trial division of a polyq modulus (about 16k steps at 10^9).
MAX_INT_DIGITS = 9


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at(self, tokens: str | tuple[str, ...]) -> bool:
        self.skip_ws()
        return self.text.startswith(tokens, self.pos)

    def literal(self, token: str) -> bool:
        if self.at(token):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.literal(token):
            raise SpecParseError(f"expected {token!r}", self.pos)

    def integer(self) -> tuple[int, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise SpecParseError("expected an integer", start)
        if self.pos - start > MAX_INT_DIGITS:
            raise SpecParseError(f"integer longer than {MAX_INT_DIGITS} digits", start)
        return int(self.text[start : self.pos]), start

    def int_list(self, *, stop_at_spec: bool = False) -> list[tuple[int, int]]:
        items = [self.integer()]
        while True:
            comma = self.pos
            if not self.literal(",") or (stop_at_spec and self.at(_SPEC_STARTS)):
                self.pos = comma
                return items
            items.append(self.integer())

    def generators(self) -> tuple[int, ...]:
        if self.at("]") or self.pos == len(self.text):
            return ()
        return tuple(g for g, _ in self.int_list())

    def catalogue_line(self) -> tuple[SpecNode, tuple[tuple[int, ...], ...] | None]:
        node = self.spec()
        filters: list[tuple[int, ...]] = []
        while self.literal("["):
            filters.append(self.generators())
            self.expect("]")
        return node, tuple(dict.fromkeys(filters)) if filters else None

    def spec(self) -> SpecNode:
        self.skip_ws()
        if self.literal("Zn:"):
            n, at = self.integer()
            if n < 2:
                raise SpecParseError("ring order must be at least 2", at)
            return ZnNode(n)
        if self.literal("prod("):
            left = self.spec()
            self.expect(",")
            right = self.spec()
            self.expect(")")
            return ProdNode(left, right)
        if self.literal("polyq:"):
            p, p_at = self.integer()
            if not _is_prime(p):
                raise SpecParseError("polynomial modulus must be prime", p_at)
            self.expect(":")
            coeffs = self.int_list(stop_at_spec=True)
            if len(coeffs) < 2:
                raise SpecParseError("quotient polynomial must have degree at least 1", coeffs[0][1])
            for c, at in coeffs:
                if c >= p:
                    raise SpecParseError(f"coefficient out of range 0..{p - 1}", at)
            if coeffs[-1][0] != 1:
                raise SpecParseError("quotient polynomial must be monic (leading coefficient 1)", coeffs[-1][1])
            return PolyqNode(p, tuple(c for c, _ in coeffs))
        if self.literal("quot("):
            base = self.spec()
            self.expect(";")
            gens = tuple(dict.fromkeys(g for g, _ in self.int_list()))
            self.expect(")")
            # zero is element 0 of every spec-built ring, and R/{0} is R
            return base if gens == (0,) else QuotNode(base, gens)
        raise SpecParseError("expected a ring spec: Zn:<n>, prod(...), polyq:..., or quot(...)", self.pos)


def _parse_all(text: str, rule):
    parser = _Parser(text)
    result = rule(parser)
    parser.skip_ws()
    if parser.pos != len(text):
        raise SpecParseError("unexpected trailing input", parser.pos)
    return result


def parse_ring_spec(text: str) -> SpecNode:
    """Parse a spec string; raises SpecParseError with a character offset."""
    return _parse_all(text, _Parser.spec)


def parse_generators(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of element indices (empty text gives ())."""
    return _parse_all(text, _Parser.generators)


def parse_catalogue_line(text: str) -> tuple[SpecNode, tuple[tuple[int, ...], ...] | None]:
    """Parse a spec followed by zero or more ``[generators]`` ideal filters.

    Repeated filters are dropped, first occurrence kept; a line without
    filters gives None (every proper ideal).
    """
    return _parse_all(text, _Parser.catalogue_line)


def build_ring(spec: SpecNode | str, *, max_order: int = DEFAULT_MAX_ORDER) -> FiniteRing:
    """Construct the ring a spec describes.

    ``quot`` nodes build the base ring, generate the ideal from the listed
    element indices (InvalidElementError if one is out of range), and
    return the quotient.
    """
    node = parse_ring_spec(spec) if isinstance(spec, str) else spec
    if isinstance(node, ZnNode):
        return build_zn(node.n, max_order=max_order)
    if isinstance(node, PolyqNode):
        return build_poly_quotient(node.p, list(node.coeffs), max_order=max_order)
    if isinstance(node, ProdNode):
        left = build_ring(node.left, max_order=max_order)
        right = build_ring(node.right, max_order=max_order)
        return direct_product(left, right, max_order=max_order)
    if isinstance(node, QuotNode):
        base = build_ring(node.base, max_order=max_order)
        ideal = generate_ideal(base, node.generators)
        if not ideal.is_proper:
            raise ImproperIdealError(f"generators {node.generators} generate the whole ring {base.spec}")
        quotient, _ = quotient_ring(base, ideal)
        return quotient
    raise TypeError(f"not a spec node: {node!r}")
