"""Finite commutative rings with identity, stored as dense Cayley tables.

Elements are the integers 0..order-1; ``add_table`` and ``mul_table`` are
read-only order x order numpy arrays in the narrowest unsigned dtype that
holds every element index (uint8 up to order 256, uint16 up to 65536), so
every predicate in this module is an explicit exhaustive scan over those
tables. The builders produce that dtype directly, with no order x order
int64 temporary, and lock each fresh table so that ``FiniteRing`` keeps it
without a copy.

Two facts are read off the tables once per ring, on first use, and kept
on it as read-only length-order cached properties: ``zero_divisor_mask``,
one scan of ``mul_table`` in row blocks of ``_BLOCK_CELLS`` cells, and
``power_array`` (x^(2^k) with 2^k >= order), read off the diagonal, so no
order x order temporary is built for them. ``zero_divisors`` and
``nilpotents`` (as ascending member tuples), ``total_quotient_ring`` and
``ideals.Ideal.radical_mask`` read them. A ring reads no process-global
state. Which table cells lie in a subset is tested by ``membership`` in
every scan.

``is_von_neumann_regular`` tests x against row x*x of ``mul_table``, which
is exact on a commutative and associative table. Those are ring axioms,
which ``validate_ring_axioms`` decides and construction does not check,
not statements that ``verify`` checks.

Element names are for display only, and no predicate reads them. Each ring
keeps one function that makes them, and ``element_names`` is a cached
property built from it on first read.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CapExceededError,
    InvalidElementError,
    InvalidModulusError,
    InvalidOrderError,
    InvalidPolynomialError,
    RingConsistencyError,
)

DEFAULT_MAX_ORDER = 4096
# cells per row block of every blocked scan or fill: keeps each temporary
# small next to the tables
_BLOCK_CELLS = 1 << 16


def row_blocks(stop: int, width: int, start: int = 0) -> Iterator[slice]:
    """Slices covering rows ``start..stop-1``, about ``_BLOCK_CELLS`` cells
    each for rows ``width`` cells wide (at least one row per block, so a
    zero width is fine)."""
    step = max(1, _BLOCK_CELLS // max(1, width))
    for lo in range(start, stop, step):
        yield slice(lo, min(lo + step, stop))


def packed_words(rows: np.ndarray) -> np.ndarray:
    """The rows of a 2-D boolean array packed into 64-bit words, the packed
    bytes of each row zero-padded to a whole number of words (not copied
    when already whole). Byte order in memory is the rows' lexicographic
    order."""
    packed = np.packbits(rows, axis=1)
    if packed.shape[1] % 8:
        packed = np.concatenate([packed, np.zeros((len(packed), -packed.shape[1] % 8), np.uint8)], axis=1)
    return packed.view(np.uint64)


def row_classes(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, labels) for the rows of a boolean array given as
    ``packed_words``: rows share a label exactly when they are equal, and
    ``first[c]`` is the index of the first row with label c. The rows are
    sorted stably as their packed bytes, so labels rank the rows and each
    run of equal rows starts at its first row. This is ``np.unique`` with
    ``return_index`` and ``return_inverse``, less the wrapper that outweighs
    the sort on the few-row inputs most catalogue rings and graphs have."""
    if words.shape[1] == 0:
        return np.zeros(min(1, words.shape[0]), dtype=np.intp), np.zeros(words.shape[0], dtype=np.intp)
    keys = words.view(np.dtype((np.void, words.shape[1] * 8)))[:, 0]
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    new[1:] = ranked[1:] != ranked[:-1]
    labels = np.empty(len(keys), dtype=np.intp)
    labels[order] = new.cumsum() - 1
    return order[new], labels


def _table_dtype(order: int) -> np.dtype:
    """The dtype of both tables of a ring of this order: the narrowest
    unsigned integer dtype holding 0..order-1."""
    return np.min_scalar_type(order - 1)


class FiniteRing:
    """A finite commutative ring with nonzero identity.

    The tables may come in any integer dtype; they are stored C-contiguous
    in ``np.min_scalar_type(order - 1)``. A read-only C-contiguous table
    already in that dtype is kept; any other table is copied, so a caller's
    writeable array stays writeable and is never shared with the ring.
    Construction only checks that the entries are integers in range, before
    narrowing, and that ``zero`` and ``one`` act as identities;
    ``validate_ring_axioms`` checks every axiom exactly, in O(n^2 * k) for
    k additive generators. Instances are immutable after construction (the
    tables are read-only), so they are safe to share between threads.

    ``zero_divisor_mask`` and ``power_array`` are cached properties (see
    the module docstring). Each is a read-only 1-D array of length
    ``order``: nothing order x order is ever cached, on a ring or on an
    ideal, since the two tables are the only quadratic state. Two threads
    that fill one fact compute the same array, so the cache keeps the ring
    safe to share.

    ``element_names`` is one display name per element. It may be given as a
    sequence, which is length-checked here, or as a function returning one,
    whose result is checked on the first read. Either is kept as one
    function, ``_name_source``, which refers to no ring, so a derived ring
    does not keep its source rings' tables alive.
    """

    def __init__(
        self,
        add_table,
        mul_table,
        element_names: Sequence[str] | Callable[[], Iterable[str]],
        spec: str,
        zero: int,
        one: int,
    ):
        add = np.asarray(add_table)
        mul = np.asarray(mul_table)
        n = int(add.shape[0]) if add.ndim == 2 else 0
        if n < 2:
            raise InvalidOrderError("a ring needs at least two elements (nonzero identity)")
        if add.shape != (n, n) or mul.shape != (n, n):
            raise RingConsistencyError("operation tables must be square and equally sized")
        if add.dtype.kind not in "iu" or mul.dtype.kind not in "iu":
            raise RingConsistencyError(f"table entries must be integers, got {add.dtype} and {mul.dtype}")
        # an unsigned table cannot hold a negative entry
        if any((t.dtype.kind == "i" and t.min() < 0) or t.max() >= n for t in (add, mul)):
            raise RingConsistencyError("table entries must be element indices in 0..order-1")
        dtype = _table_dtype(n)
        kept = lambda t: t.dtype == dtype and t.flags.c_contiguous and not t.flags.writeable
        add, mul = (t if kept(t) else np.array(t, dtype, order="C") for t in (add, mul))
        zero = int(zero)
        one = int(one)
        if not (0 <= zero < n and 0 <= one < n):
            raise InvalidElementError("zero/one must be element indices")
        if zero == one:
            raise RingConsistencyError("zero and one coincide; the zero ring is not supported")
        idx = np.arange(n, dtype=np.intp)
        if not (add[zero] == idx).all():
            raise RingConsistencyError("`zero` is not an additive identity")
        if not (mul[one] == idx).all():
            raise RingConsistencyError("`one` is not a multiplicative identity")
        if not callable(element_names):
            names = _checked_names(element_names, n)
            element_names = lambda: names
        add.setflags(write=False)
        mul.setflags(write=False)
        self.order = n
        self.zero = zero
        self.one = one
        self.add_table = add
        self.mul_table = mul
        self._name_source = element_names
        self.spec = str(spec)

    @cached_property
    def element_names(self) -> tuple[str, ...]:
        """One display name per element, built on first read."""
        return _checked_names(self._name_source(), self.order)

    @cached_property
    def zero_divisor_mask(self) -> np.ndarray:
        """Z(R) as a mask: the x with x*y = 0 for some nonzero y, scanned
        in row blocks."""
        hits = np.empty(self.order, dtype=bool)
        for rows in row_blocks(self.order, self.order):
            block = self.mul_table[rows] == self.zero
            block[:, self.zero] = False
            hits[rows] = block.any(axis=1)
        hits.setflags(write=False)
        return hits

    @cached_property
    def power_array(self) -> np.ndarray:
        """x^(2^k) for every element x, where 2^k >= order: k squarings
        along the diagonal of ``mul_table``. Exponents up to the ring order
        decide nilpotency and radical membership, and once a power is zero
        or lies in an ideal every higher power does too."""
        e = np.arange(self.order, dtype=np.intp)
        for _ in range(max(1, (self.order - 1).bit_length())):
            e = self.mul_table.diagonal().take(e)
        e.setflags(write=False)
        return e

    def __repr__(self) -> str:
        return f"FiniteRing({self.spec!r}, order={self.order})"


def _checked_names(names: Iterable[str], order: int) -> tuple[str, ...]:
    names = tuple(str(name) for name in names)
    if len(names) != order:
        raise RingConsistencyError("need exactly one display name per element")
    return names


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _check_order_cap(order: int, max_order: int) -> None:
    if order > max_order:
        raise CapExceededError(f"ring order {order} exceeds the cap of {max_order}")


def _cyclic_table(n: int, dtype: np.dtype) -> np.ndarray:
    """The addition table of Z_n as a read-only view: row i is the window
    i..i+n-1 of 0..n-1, 0..n-1, so it needs no sum and no division."""
    idx = np.arange(n, dtype=dtype)
    return sliding_window_view(np.concatenate([idx, idx]), n)[:n]


def build_zn(n: int, *, max_order: int = DEFAULT_MAX_ORDER) -> FiniteRing:
    """The integers modulo ``n``, with element ``i`` named ``"i"``.

    The first row block, rows 0..s-1, holds products p = i*j in the
    narrowest unsigned dtype that holds (n-1)^2, reduced as p - (p // n) * n
    (numpy divides by a scalar through a multiply-and-shift, but not ``%``).
    Each later row i is row i-s + row s mod n, a sum t <= 2n-2 in the
    narrowest unsigned dtype that holds it, reduced as min(t, t - n): t - n
    wraps around when t < n.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidOrderError(f"ring order must be an integer >= 2, got {n!r}")
    _check_order_cap(n, max_order)
    dtype = _table_dtype(n)
    add = _cyclic_table(n, dtype)
    mul = np.empty((n, n), dtype=dtype)
    first, *later = row_blocks(n, n)
    wide = np.min_scalar_type((n - 1) ** 2)
    idx = np.arange(n, dtype=wide)
    block = np.multiply.outer(idx[first], idx)
    block -= block // wide.type(n) * wide.type(n)
    mul[first] = block
    s = first.stop
    step = (np.arange(n, dtype=np.intp) * s % n).astype(np.min_scalar_type(2 * n - 2))  # row s
    for rows in later:
        t = mul[rows.start - s : rows.stop - s] + step
        mul[rows] = np.minimum(t, t - n)
    mul.setflags(write=False)
    return FiniteRing(add, mul, lambda: map(str, range(n)), f"Zn:{n}", zero=0, one=1)


def _poly_name(digits: Sequence[int], p: int) -> str:
    terms = []
    for j in range(len(digits) - 1, -1, -1):
        c = int(digits[j])
        if c == 0:
            continue
        if j == 0:
            terms.append(str(c))
        else:
            coef = "" if c == 1 else str(c)
            terms.append(coef + ("x" if j == 1 else f"x^{j}"))
    return "+".join(terms) if terms else "0"


def _pair_table(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """The componentwise table of two operation tables on row-major pairs
    (i*len(tb) + j), in the table dtype of the product's order, read-only."""
    na, nb = len(ta), len(tb)
    dtype = _table_dtype(na * nb)
    # widen before multiplying: uint8 factors can have a uint16 product, and
    # ta*nb would wrap in uint8
    high = ta.astype(dtype) * dtype.type(nb)
    table = (high[:, None, :, None] + tb.astype(dtype)[None, :, None, :]).reshape(na * nb, na * nb)
    table.setflags(write=False)
    return table


def build_poly_quotient(p: int, coeffs: Sequence[int], *, max_order: int = DEFAULT_MAX_ORDER) -> FiniteRing:
    """Z_p[X]/(f) for a monic ``f`` given constant-term first.

    Elements are polynomials of degree < deg(f); element ``i`` has the
    base-p digits of ``i`` as coefficients (digit j = coefficient of x^j).

    Addition is digitwise, so its table is that of Z_p^k with the top digit
    most significant. Rows 0..p-1 of the multiplication table are scalar
    multiples. Every other element is i = a0 + x*a' with a0 = i % p and
    a' = i // p < i, so by Horner's rule row i is row a0 plus x times
    row a'; multiplying by x shifts the digits up and replaces the carried
    x^k by -(c0 + c1 x + ... + c_{k-1} x^{k-1}). The rows with j+1 base-p
    digits need only rows with at most j, so each digit level is filled in
    row blocks, each one gather from ``add`` through a flat intp index
    a*order + b (a pair of narrow index arrays would be cast per element).

    The order cap is checked before the primality test of ``p``, whose
    trial division takes about sqrt(p) steps.
    """
    cs = [int(c) for c in coeffs]
    if len(cs) < 2:
        raise InvalidPolynomialError("quotient polynomial must have degree at least 1")
    k = len(cs) - 1
    order = p**k
    if p >= 2:  # a smaller p is reported as a bad modulus, not by its power
        _check_order_cap(order, max_order)
    if not _is_prime(p):
        raise InvalidModulusError(f"polynomial modulus must be prime, got {p}")
    if any(c < 0 or c >= p for c in cs):
        raise InvalidPolynomialError(f"coefficients must lie in 0..{p - 1}")
    if cs[-1] != 1:
        raise InvalidPolynomialError("quotient polynomial must be monic (leading coefficient 1)")

    add = zp_add = _cyclic_table(p, _table_dtype(p))
    for _ in range(k - 1):
        add = _pair_table(zp_add, add)  # the new digit on top keeps numpy's inner loop long

    idx = np.arange(order, dtype=np.intp)
    mul = np.zeros((order, order), dtype=add.dtype)
    for c in range(1, p):
        mul[c] = add[mul[c - 1], idx]
    top = p ** (k - 1)
    h = sum(((-c) % p) * p**j for j, c in enumerate(cs[:k]))
    times_x = add[(idx % top) * p, mul[idx // top, h]].astype(np.intp)
    cells = add.ravel()
    for level in (p**j for j in range(1, k)):
        for block in row_blocks(level * p, order, level):
            rows = idx[block]
            flat = mul[rows % p].astype(np.intp)
            flat *= order
            flat += times_x[mul[rows // p].astype(np.intp)]
            mul[block] = cells[flat]
    mul.setflags(write=False)

    def names():
        digits = idx[:, None] // p ** np.arange(k, dtype=np.intp) % p
        return (_poly_name(d, p) for d in digits)

    spec = f"polyq:{p}:{','.join(str(c) for c in cs)}"
    return FiniteRing(add, mul, names, spec, zero=0, one=1)


def direct_product(a: FiniteRing, b: FiniteRing, *, max_order: int = DEFAULT_MAX_ORDER) -> FiniteRing:
    """Componentwise product ring on row-major index pairs (i*|b| + j)."""
    order = a.order * b.order
    _check_order_cap(order, max_order)
    nb = b.order
    add = _pair_table(a.add_table, b.add_table)
    mul = _pair_table(a.mul_table, b.mul_table)
    a_names, b_names = a._name_source, b._name_source

    def names():
        right = tuple(b_names())
        return (f"({x},{y})" for x in a_names() for y in right)

    zero = a.zero * nb + b.zero
    one = a.one * nb + b.one
    return FiniteRing(add, mul, names, f"prod({a.spec},{b.spec})", zero=zero, one=one)


def membership(mask: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The test ``cells -> mask[cells]``, exact for any subset ``mask``. A
    one-member subset, such as the zero ideal wherever zero sits, compares
    the cells with its member, several times faster than a gather; any
    other is gathered with the cells cast to intp first (numpy's own cast of
    a narrow index array makes the gather about twice as slow)."""
    members = np.flatnonzero(mask)
    if len(members) == 1:
        member = int(members[0])  # a Python int keeps the cells' dtype
        return lambda cells: cells == member
    return lambda cells: mask[cells.astype(np.intp)]


def table_mask(table: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The boolean matrix ``mask[table]``: which entries of an operation
    table lie in the subset ``mask``, tested by ``membership`` in row
    blocks."""
    member = membership(mask)
    out = np.empty(table.shape, dtype=bool)
    for rows in row_blocks(len(table), table.shape[1]):
        out[rows] = member(table[rows])
    return out


def zero_divisors(r: FiniteRing) -> tuple[int, ...]:
    """Z(R) = elements x with x*y = 0 for some nonzero y (0 always
    qualifies), ascending, read off ``zero_divisor_mask``."""
    return tuple(np.flatnonzero(r.zero_divisor_mask).tolist())


def nilpotents(r: FiniteRing) -> tuple[int, ...]:
    """Elements with some power equal to zero, ascending, read off
    ``power_array``."""
    return tuple(np.flatnonzero(r.power_array == r.zero).tolist())


def is_reduced(r: FiniteRing) -> bool:
    """True when the only nilpotent element is zero."""
    return nilpotents(r) == (r.zero,)


def is_von_neumann_regular(r: FiniteRing) -> bool:
    """True when every x admits a y with x*y*x = x (exhaustive search).

    (x*y)*x = x*(x*y) = (x*x)*y by commutativity and associativity of the
    table, ring axioms that ``validate_ring_axioms`` checks, so x is
    regular exactly when row x*x of ``mul_table`` holds x. The rows x*x are
    copied in row blocks of x and compared with x, and the scan returns at
    the first block holding a non-regular x.
    """
    n, mul = r.order, r.mul_table
    squares = mul.diagonal()
    # compared in the table dtype: widening each block costs more than the
    # comparison
    own = np.arange(n, dtype=mul.dtype)
    for rows in row_blocks(n, n):
        if not (mul.take(squares[rows], axis=0) == own[rows, None]).any(axis=1).all():
            return False
    return True


def total_quotient_ring(r: FiniteRing) -> FiniteRing:
    """Localization at the non-zero-divisors; the ring itself when finite.

    In a finite commutative ring every regular element is a unit, so the
    localization changes nothing. This verifies that fact (it can only fail
    for corrupted data) and returns ``r`` unchanged: it reads, in row
    blocks, only the rows of ``mul_table`` outside ``zero_divisor_mask``,
    and names the least of them that does not hold ``one``.
    """
    regular = np.flatnonzero(~r.zero_divisor_mask)
    for rows in row_blocks(len(regular), r.order):
        units = (r.mul_table.take(regular[rows], axis=0) == r.one).any(axis=1)
        if not units.all():
            x = int(regular[rows][units.argmin()])
            raise RingConsistencyError(f"element {r.element_names[x]} is neither a unit nor a zero-divisor")
    return r


def _close_under(reached: np.ndarray, f: np.ndarray) -> None:
    """Grow the mask ``reached`` to the least superset closed under the map
    ``f`` (an intp array), by pointer doubling: round j adds the image of
    the set under f^(2^j), so after j rounds it holds f^i(R) for every
    i < 2^j. A round that adds nothing shows f^i(R) inside for every
    i < 2^(j+1), so the set is closed under f; about log2(order) rounds
    reach the closure."""
    step = f
    while True:
        image = step[np.flatnonzero(reached)]
        if reached[image].all():
            return
        reached[image] = True
        step = step[step]


def _additive_generators(r: FiniteRing) -> list[int]:
    """Ascending nonzero g_1 < ... < g_k such that every element is a
    left-combed sum (...((g_a + g_b) + g_c) ...) of them, read off the
    addition table alone.

    Each round takes the least nonzero element g not yet reached; the
    reached set is then the least set holding the generators taken so far
    that is closed under s -> s + h for each of them. It is unique, so it
    may be grown in any order. The set before g was closed under the maps
    before it, so ``_close_under`` first closes it, with g, under the map
    ``add_table[:, g]``, in O(log n) gathers of length n. Then the elements
    it added, and each element added after them, are sent through every
    generator's map at once, until none is new. On a genuine ring that
    last step adds nothing (the set is the subgroup the generators span),
    so the search costs O(k * n * log n), and O(k * n * log n + n^2) on any
    table, since each element goes through that step once and each round
    of it but the last adds an element. Zero is reached as a sum too: once every nonzero
    x is, so is its inverse y, and y + x = 0. That needs + commutative with
    inverses, so check those first.
    """
    A = r.add_table
    nonzero = np.arange(r.order) != r.zero
    reached = np.zeros(r.order, dtype=bool)
    gens: list[int] = []
    while not reached.all():
        g = int(np.flatnonzero(nonzero & ~reached)[0])
        gens.append(g)
        before = reached.copy()
        reached[g] = True
        _close_under(reached, A[:, g].astype(np.intp))
        fresh = np.flatnonzero(reached & ~before)
        while fresh.size:  # the set before g was closed under the old maps
            before = reached.copy()
            reached[A[np.ix_(fresh, gens)].ravel()] = True
            fresh = np.flatnonzero(reached & ~before)
    return gens


def validate_ring_axioms(r: FiniteRing) -> None:
    """Verify every commutative-ring axiom on the tables, exactly.

    Commutativity, the identities and additive inverses are O(n^2) scans.
    Associativity and distributivity are checked only for middle arguments
    g in a set G of additive generators that ``_additive_generators`` proves
    covers the ring: (x+g)+y = x+(g+y), then x(g+y) = xg+xy, then
    (xg)y = x(gy), each for all x, y. The g passing the first identity are
    closed under + in any magma (Light's test); once + is associative and
    commutative, so are those passing the second, and once distributivity
    holds, so are those passing the third. Every element is a sum of
    generators, so each identity then holds everywhere. That costs O(n^2)
    per generator, O(n^2 * k) in all, with k <= log2(n) for a genuine ring.

    Every O(n^2) pass reads the tables in ``row_blocks`` of x and stops at
    the first block that fails, so the extra memory is O(block) cells,
    whatever k is. Commutativity compares each block of the upper triangle
    with its transpose. Each identity loops over blocks outside and
    generators inside; its right side xg + xy is one flat gather from
    ``add_table`` at xg * n + xy. The rows A[g] and M[g] stay in the table
    dtype: ``take`` casts such an index once per call, no slower than a
    cast kept per generator, which would hold 16 * k * n bytes, and a table
    that is not a ring can have k near n.

    Raises RingConsistencyError naming the broken axiom: for commutativity
    the first failing (x, y) in row-major order, and for the three
    identities the failing (x, g, y) with the least x, then the first
    generator g, then the least y.
    """
    n, A, M = r.order, r.add_table, r.mul_table
    idx = np.arange(n, dtype=np.intp)
    for T, name in ((A, "addition"), (M, "multiplication")):
        # the least asymmetric row has no asymmetric cell left of the diagonal
        for rows in row_blocks(n, n):
            bad = T[rows, rows.start :] != T[rows.start :, rows].T
            if bad.any():
                x, y = divmod(int(bad.argmax()), bad.shape[1])
                raise RingConsistencyError(f"{name} not commutative at ({rows.start + x},{rows.start + y})")
    if not (A[r.zero] == idx).all():
        raise RingConsistencyError("zero is not an additive identity")
    if not (M[r.one] == idx).all():
        raise RingConsistencyError("one is not a multiplicative identity")
    for rows in row_blocks(n, n):
        inverse = (A[rows] == r.zero).any(axis=1)
        if not inverse.all():
            raise RingConsistencyError(f"element {rows.start + int(inverse.argmin())} has no additive inverse")

    # Row g of a commutative table is also its column g, so each side is a
    # gather of rows or columns: in block X, T[T[g][X]] is (gx)y for rows x
    # of X, T[X][:, T[g]] is x(gy), and xg + xy is read at xg * n + xy.
    gens = _additive_generators(r)
    cells = A.ravel()
    identities = (
        ("addition not associative", lambda X, g: A.take(A[g, X], axis=0) != A[X].take(A[g], axis=1)),
        (
            "distributivity fails",
            lambda X, g: M[X].take(A[g], axis=1) != cells[M[g, X, None].astype(np.intp) * n + M[X]],
        ),
        ("multiplication not associative", lambda X, g: M.take(M[g, X], axis=0) != M[X].take(M[g], axis=1)),
    )
    for label, failing in identities:
        for X in row_blocks(n, n):
            witness = None
            for g in gens:
                bad = failing(X, g)
                if bad.any():
                    x, y = divmod(int(bad.argmax()), n)
                    if witness is None or x < witness[0]:
                        witness = (x, g, y)
            if witness is not None:
                x, g, y = witness
                raise RingConsistencyError(f"{label} at ({X.start + x},{g},{y})")
