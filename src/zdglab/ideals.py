"""Ideal generation and enumeration, radicals, primality, quotient rings.

An ideal is its membership mask, and ``Ideal`` is the only subset of a ring
kept as one. Two facts are cached on it as length-order masks.
``Ideal.vertex_mask``, the vertex set of Gamma_I(R), is one scan of the
pairs x <= y of the multiplication table in row blocks; ``is_prime`` reads
it, since Gamma_I(R) is empty exactly when I is prime, and
``graphs.gamma_ideal`` builds its graph on it. ``Ideal.radical_mask`` is
one gather through the ring's cached ``power_array``; ``radical`` and
``is_radical`` read it.

``all_ideals`` walks the ideals from the zero ideal by reverse search
(Avis and Fukuda, 1996). An ideal K's greedy generators g1 < ... < gk
(``minimal_generators``) are each the least member of K outside the sum J
of the ones before; the sum of all but gk is K's parent. The children of J
are the J + Rg with g > gk, g outside J and g the least member of J + Rg
outside J. Their members below g lie in J, so their greedy generators are
J's and then g: each ideal is reached once, along its greedy sequence, and
nothing is deduplicated. A greedy g is the least generator of Rg (a smaller
h with Rh = Rg lies in K outside J), so only least generators are tried.

``quotient_ring`` names each coset by its least member, so x represents
x + I exactly when x is that member. A running count of the representatives
numbers the cosets, with no sort or search, and both quotient tables are
gathered through it in the quotient's table dtype. Its element -> coset map
is the only bridge from R to R/I in ``verify``.

The vertex scan and ``quotient_ring``, which reads each coset x + I off
rows m of the addition table as m + x, rely on commutative tables: a ring
axiom that ``rings.validate_ring_axioms`` decides, not a statement that
``verify`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import CapExceededError, ImproperIdealError, InvalidElementError
from .rings import FiniteRing, _table_dtype, packed_words, row_blocks, row_classes

DEFAULT_IDEAL_ENUMERATION_CAP = 256


@dataclass(frozen=True, eq=False)
class Ideal:
    """An ideal given by its read-only boolean membership mask over
    ``0..order-1``, always the complete ideal (0 in it, closed under addition
    and ring multiplication). Iteration (ascending members) and ``len`` are
    read off the mask, the size counted once at construction; ``generators``
    records provenance. Instances compare by identity (compare masks).
    """

    ring: FiniteRing
    mask: np.ndarray
    generators: tuple[int, ...]
    _size: int = field(init=False, repr=False)

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        if mask.shape != (self.ring.order,):
            raise InvalidElementError(
                f"membership mask must have shape ({self.ring.order},), got {mask.shape}"
            )
        if not mask[self.ring.zero]:
            raise InvalidElementError("an ideal must contain zero")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_size", int(np.count_nonzero(mask)))

    def __iter__(self):
        return iter(np.flatnonzero(self.mask).tolist())

    def __len__(self) -> int:
        return self._size

    @cached_property
    def vertex_mask(self) -> np.ndarray:
        """Read-only mask of the vertices of Gamma_I(R): the x outside I
        with x*y in I for some y outside I, y = x included.

        x*y = y*x by commutativity of the table, a ring axiom that
        ``rings.validate_ring_axioms`` checks, so only the pairs x <= y
        outside I are scanned. The x outside I are taken in row blocks; a
        block starting at x0 gathers ``mul_table[xs, x0:]`` through the
        membership mask (cast to intp) and keeps the columns y outside I.
        A row holding a product in I marks its x, and a column holding one
        marks its y. No order x order array is built, and on a ring of
        many blocks the gather reads about half the table.
        """
        r = self.ring
        outside = ~self.mask
        rows = np.flatnonzero(outside)
        hit = np.zeros(r.order, dtype=bool)
        for block in row_blocks(len(rows), r.order):
            xs = rows[block]
            x0 = xs[0]
            pairs = self.mask[r.mul_table[xs, x0:].astype(np.intp)] & outside[x0:]
            hit[xs] |= pairs.any(axis=1)
            hit[x0:] |= pairs.any(axis=0)
        hit.setflags(write=False)
        return hit

    @cached_property
    def radical_mask(self) -> np.ndarray:
        """Read-only mask of the radical of I: the x with some power in I.

        Exponents up to the ring order suffice; once a power lands in the
        ideal all higher powers stay there, so the ring's cached power array
        x^(2^k), 2^k >= order, decides it.
        """
        mask = self.mask[self.ring.power_array]
        mask.setflags(write=False)
        return mask

    @property
    def is_zero(self) -> bool:
        return len(self) == 1

    @property
    def is_proper(self) -> bool:
        return len(self) < self.ring.order

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        gens = ",".join(str(g) for g in self.generators)
        return f"Ideal(({gens}) in {self.ring.spec}, size={len(self)})"


def _mask_of(r: FiniteRing, entries: np.ndarray) -> np.ndarray:
    """Mask of the elements among some table entries. Casting them to intp
    first halves the cost of numpy's scatter through a narrow index."""
    mask = np.zeros(r.order, dtype=bool)
    mask[entries.astype(np.intp)] = True
    return mask


def _principal_mask(r: FiniteRing, g: int) -> np.ndarray:
    return _mask_of(r, r.mul_table[g])


def _sum_mask(r: FiniteRing, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the ideal sum a + b (a sum of ideals is an ideal)."""
    return _mask_of(r, r.add_table.take(np.flatnonzero(a), axis=0).take(np.flatnonzero(b), axis=1))


def _principal_sum(r: FiniteRing, elements: Iterable[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """(mask, used): the sum of the principal ideals of ``elements``, in
    order; ``used`` are the elements not yet in the sum when reached."""
    mask = np.arange(r.order) == r.zero
    used: list[int] = []
    for g in elements:
        if not mask[g]:
            used.append(g)
            mask = _sum_mask(r, mask, _principal_mask(r, g))
    return mask, tuple(used)


def generate_ideal(r: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Smallest ideal containing the given elements (the zero ideal for []):
    the sum of the generators' principal ideals."""
    gen_list: list[int] = []
    for g in gens:
        g = int(g)
        if not (0 <= g < r.order):
            raise InvalidElementError(f"generator {g} out of range for ring of order {r.order}")
        if g not in gen_list:
            gen_list.append(g)
    return Ideal(r, _principal_sum(r, gen_list)[0], tuple(gen_list))


def minimal_generators(r: FiniteRing, mask: np.ndarray) -> tuple[int, ...]:
    """Greedy small generating sequence for an ideal's membership mask:
    each member not yet covered, in ascending order, joins the generators."""
    return _principal_sum(r, np.flatnonzero(mask).tolist())[1]


def all_ideals(r: FiniteRing, *, max_order: int = DEFAULT_IDEAL_ENUMERATION_CAP) -> list[Ideal]:
    """Every ideal of the ring, zero ideal and whole ring included, by the
    walk in the module docstring; sorted by (size, member sequence).

    A scatter of the multiplication table, one row block at a time, gives
    the principal-mask matrix (row g is Rg), and one ``row_classes`` sort of
    its rows the least generators, each of which a principal ideal keeps;
    other ideals keep their greedy generators. A candidate g whose Rg has a
    member below g outside J is dropped before any sum, and the zero
    ideal's children are the Rg themselves.
    """
    if r.order > max_order:
        raise CapExceededError(f"ideal enumeration allows order <= {max_order}, ring has {r.order}")
    n = r.order
    principal = np.zeros((n, n), dtype=bool)
    for rows in row_blocks(n, n):
        np.put_along_axis(principal[rows], r.mul_table[rows].astype(np.intp), True, axis=1)
    least = np.sort(row_classes(packed_words(principal))[0])
    named = {principal[g].tobytes(): (g,) for g in least.tolist()}
    ideals = []
    walk = [(principal[r.zero], ())]
    while walk:
        mask, gens = walk.pop()
        ideals.append(Ideal(r, mask, named.get(mask.tobytes(), gens)))
        after = gens[-1] if gens else -1
        cand = least[(least > after) & ~mask[least]]
        cand = cand[(principal[cand] & ~mask).argmax(axis=1) == cand]
        for g in cand.tolist():
            child = principal[g]
            if gens:
                child = _sum_mask(r, child, mask)  # rows from Rg, usually the smaller side
                if (child & ~mask).argmax() != g:
                    continue
            walk.append((child, gens + (g,)))
    ideals.sort(key=lambda i: (len(i), i.sorted_members()))
    return ideals


def radical(i: Ideal) -> Ideal:
    """Elements with some power landing in the ideal (``Ideal.radical_mask``)."""
    return Ideal(i.ring, i.radical_mask, minimal_generators(i.ring, i.radical_mask))


def is_radical(i: Ideal) -> bool:
    return bool(np.array_equal(i.radical_mask, i.mask))


def is_prime(i: Ideal) -> bool:
    """Proper, and x*y in I forces x in I or y in I.

    A pair x, y outside I with x*y in I makes x a vertex of Gamma_I(R), so
    this reads the exhaustive pair scan behind ``Ideal.vertex_mask``: I is
    prime exactly when it is proper and the graph has no vertex.
    """
    return i.is_proper and not i.vertex_mask.any()


def quotient_ring(r: FiniteRing, i: Ideal) -> tuple[FiniteRing, np.ndarray]:
    """R/I on least-member coset representatives (see the module
    docstring), plus the element -> coset map in intp.

    The quotient by the zero ideal is the ring itself (identity map). The
    tables come out read-only in ``np.min_scalar_type(q.order - 1)``, which
    ``FiniteRing`` keeps without a copy. Coset x+I is named "x+I" after its
    least member x, on first read.
    """
    if not i.is_proper:
        raise ImproperIdealError("cannot form the quotient by the whole ring")
    if i.is_zero:
        cmap = np.arange(r.order, dtype=np.intp)
        cmap.setflags(write=False)
        return r, cmap
    mem = np.flatnonzero(i.mask)
    # x + m = m + x by commutativity of +, so whole rows m give each coset's
    # members column by column, and reps[x] is the least member of x + I
    reps = r.add_table.take(mem, axis=0).min(axis=0)
    is_rep = reps == np.arange(r.order)
    rep_values = np.flatnonzero(is_rep)
    cmap = (is_rep.cumsum() - 1)[reps]
    narrow = cmap.astype(_table_dtype(len(rep_values)))
    block = np.ix_(rep_values, rep_values)
    add_q = narrow[r.add_table[block]]
    mul_q = narrow[r.mul_table[block]]
    add_q.setflags(write=False)
    mul_q.setflags(write=False)
    base_names = r._name_source

    def names():
        base = tuple(base_names())
        return (f"{base[v]}+I" for v in rep_values.tolist())

    gens = i.generators if i.generators else (r.zero,)
    spec = f"quot({r.spec};{','.join(str(g) for g in gens)})"
    q = FiniteRing(add_q, mul_q, names, spec, zero=int(cmap[r.zero]), one=int(cmap[r.one]))
    cmap.setflags(write=False)
    return q, cmap
