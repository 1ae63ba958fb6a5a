"""Ideal generation and enumeration, radicals, primality, quotient rings."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import CapExceededError, ImproperIdealError, InvalidElementError
from .rings import FiniteRing

DEFAULT_IDEAL_ENUMERATION_CAP = 256


@dataclass(frozen=True)
class Ideal:
    """An ideal given by its full member set.

    ``generators`` records provenance; ``members`` is always the complete
    closure (0 in it, closed under addition and ring multiplication).
    """

    ring: FiniteRing
    members: frozenset[int]
    generators: tuple[int, ...]

    def __post_init__(self):
        if self.ring.zero not in self.members:
            raise InvalidElementError("an ideal must contain zero")

    @cached_property
    def mask(self) -> np.ndarray:
        """Read-only boolean membership array over the ring's elements."""
        mask = np.zeros(self.ring.order, dtype=bool)
        mask[list(self.members)] = True
        mask.setflags(write=False)
        return mask

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    @property
    def is_zero(self) -> bool:
        return len(self.members) == 1

    @property
    def is_proper(self) -> bool:
        return len(self.members) < self.ring.order

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __repr__(self) -> str:
        gens = ",".join(str(g) for g in self.generators)
        return f"Ideal(({gens}) in {self.ring.spec}, size={len(self.members)})"


def _principal_members(r: FiniteRing, g: int) -> frozenset[int]:
    # Rg is already closed under addition (r1 g + r2 g = (r1+r2) g)
    return frozenset(int(x) for x in r.mul_table[:, g])


def _additive_closure(r: FiniteRing, seed: Iterable[int]) -> frozenset[int]:
    members = set(int(x) for x in seed)
    members.add(r.zero)
    frontier = sorted(members)
    add = r.add_table
    while frontier:
        sums = add[np.ix_(frontier, sorted(members))].ravel()
        new = set(sums.tolist()) - members
        members |= new
        frontier = sorted(new)
    return frozenset(members)


def generate_ideal(r: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Smallest ideal containing the given elements (the zero ideal for [])."""
    gen_list: list[int] = []
    for g in gens:
        g = int(g)
        if not (0 <= g < r.order):
            raise InvalidElementError(f"generator {g} out of range for ring of order {r.order}")
        if g not in gen_list:
            gen_list.append(g)
    seed: set[int] = {r.zero}
    for g in gen_list:
        seed |= _principal_members(r, g)
    return Ideal(r, _additive_closure(r, seed), tuple(gen_list))


def minimal_generators(r: FiniteRing, members: frozenset[int]) -> tuple[int, ...]:
    """Greedy small generating sequence for an ideal's member set."""
    gens: list[int] = []
    covered: frozenset[int] = frozenset({r.zero})
    for m in sorted(members):
        if m not in covered:
            gens.append(m)
            covered = _additive_closure(r, covered | _principal_members(r, m))
    return tuple(gens)


def all_ideals(r: FiniteRing, *, max_order: int = DEFAULT_IDEAL_ENUMERATION_CAP) -> list[Ideal]:
    """Every ideal of the ring, zero ideal and whole ring included.

    Closes the set of principal ideals under pairwise ideal sum; every
    ideal of a finite ring is a finite sum of principal ideals, so the
    fixpoint is complete. Sorted by (size, member sequence).
    """
    if r.order > max_order:
        raise CapExceededError(f"ideal enumeration allows order <= {max_order}, ring has {r.order}")
    found: dict[frozenset[int], tuple[int, ...]] = {}
    for g in range(r.order):
        m = _principal_members(r, g)
        if m not in found:
            found[m] = (g,)
    add = r.add_table
    work = list(found)
    while work:
        cur = sorted(work.pop())
        for other in list(found):
            s = frozenset(add[np.ix_(cur, sorted(other))].ravel().tolist())
            if s not in found:
                found[s] = minimal_generators(r, s)
                work.append(s)
    ideals = [Ideal(r, m, gens) for m, gens in found.items()]
    ideals.sort(key=lambda i: (len(i.members), i.sorted_members()))
    return ideals


def radical(i: Ideal) -> Ideal:
    """Elements with some power landing in the ideal.

    Exponents up to the ring order suffice; once a power lands in the
    ideal all higher powers stay there, so repeated squaring decides it.
    """
    r = i.ring
    e = np.arange(r.order, dtype=np.intp)
    for _ in range(max(1, (r.order - 1).bit_length())):
        e = r.mul_table[e, e]
    members = frozenset(np.flatnonzero(i.mask[e]).tolist())
    return Ideal(r, members, minimal_generators(r, members))


def is_radical(i: Ideal) -> bool:
    return radical(i).members == i.members


def is_prime(i: Ideal) -> bool:
    """Proper, and x*y in I forces x in I or y in I (exhaustive pair scan)."""
    if not i.is_proper:
        return False
    prod_in = i.mask[i.ring.mul_table]
    outside = ~i.mask
    return not bool((prod_in & outside[:, None] & outside[None, :]).any())


def quotient_ring(r: FiniteRing, i: Ideal) -> tuple[FiniteRing, np.ndarray]:
    """R/I on least-index coset representatives, plus the element -> coset map.

    The quotient by the zero ideal is the ring itself (identity map).
    """
    if not i.is_proper:
        raise ImproperIdealError("cannot form the quotient by the whole ring")
    if i.is_zero:
        cmap = np.arange(r.order, dtype=np.intp)
        cmap.setflags(write=False)
        return r, cmap
    mem = np.fromiter(sorted(i.members), dtype=np.intp)
    reps = r.add_table[:, mem].min(axis=1)
    rep_values = np.unique(reps)
    cmap = np.searchsorted(rep_values, reps).astype(np.intp)
    add_q = cmap[r.add_table[np.ix_(rep_values, rep_values)]]
    mul_q = cmap[r.mul_table[np.ix_(rep_values, rep_values)]]
    names = tuple(f"{r.element_names[v]}+I" for v in rep_values.tolist())
    gens = i.generators if i.generators else (r.zero,)
    spec = f"quot({r.spec};{','.join(str(g) for g in gens)})"
    q = FiniteRing(add_q, mul_q, names, spec, zero=int(cmap[r.zero]), one=int(cmap[r.one]))
    cmap.setflags(write=False)
    return q, cmap
