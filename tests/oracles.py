"""Independent oracles for test expectations.

Everything here is computed with plain Python modular arithmetic, naive
set scans over neighbor sets and member sets, and a brute-force
isomorphism search -- no library graph or ideal code -- so the tests can
compare the library against a second, independent route. Polynomial
quotient tables come from the digit convolution that the library's
Horner-rule builder replaced, and from that builder's row-by-row Horner
loop on int64 tables, which its per-digit-level fill replaced.
Ring axioms are checked by the O(n^3) scan over every triple that the
library's generator-based validator replaced, and by that validator on
whole-table temporaries with its breadth-first generator search, which the
library's row-block scans and pointer-doubling closure replaced. Orthogonality comes from the
full n x n common-neighbor product, and from the one-row-per-class float32
product that the library's bit-packed test on the class graph replaced;
classes of equal rows come from ``np.unique`` over unpacked boolean rows,
which the library's sort of packed rows replaced. Zero-divisors, units,
nilpotents, primality, von Neumann regularity and both graphs come from
the uncached per-call scans that the library's once-per-ring and
once-per-ideal facts replaced: whole-table comparisons, the order x order
product mask, and column reads. Von Neumann regularity also comes from the
per-element row loop that the library's row-block scan replaced, and from
the row-block scan that read each row x at its own entries through one flat
``take``, which the library's test of x against row x*x replaced. The
vertex set of Gamma_I(R) also comes from the scan of whole rows that the
library's scan of the pairs x <= y replaced; quotient tables and coset maps
from the column reads of the addition table that its row reads replaced;
and the products of Z_n from the ``%`` fill that its floor division
replaced. Ideals are
also enumerated by the sum loop that forms every pairwise sum, which the
library's containment skip replaced, and by that skip's pairwise loop,
which the library's rounds of packed containment tests replaced; those
loops alone reuse library code, the mask sum and generator search that
neither change touched.
Element names are built eagerly from the spec, as the builders did before
names were made on first read. A pair's verdict comes from the quotient
side computed afresh on every pair, which the verifier's per-run memo
replaced. Members and membership of an element set are read off its mask,
a report's result for one check is looked up by name, and each check's
truth-table cells are counted off a report's verdict rows, here, since no
library code needs them.
"""

from collections import Counter
from math import gcd

import numpy as np

from zdglab import (
    CapExceededError,
    CheckResult,
    FiniteRing,
    Ideal,
    PropertyVerdict,
    RingConsistencyError,
    SimpleGraph,
    VerificationReport,
    gamma,
    gamma_ideal,
    is_prime,
    is_radical,
    is_von_neumann_regular,
    nilpotents,
    quotient_ring,
    total_quotient_ring,
    zero_divisors,
)
from zdglab.ideals import _sum_mask, minimal_generators
from zdglab.rings import _poly_name, row_blocks, table_mask
from zdglab.specs import PolyqNode, ProdNode, ZnNode

ISO_SEARCH_CAP = 12


def members(s) -> frozenset[int]:
    """The members of an ideal, read off its mask, or of a member tuple."""
    return frozenset(np.flatnonzero(s.mask).tolist() if isinstance(s, Ideal) else s)


def contains(s, x) -> bool:
    """Membership of ``x`` in an ideal or a member tuple: an element index
    of the ring that is a member."""
    if not isinstance(x, (int, np.integer)):
        return False
    if isinstance(s, Ideal):
        return 0 <= x < s.ring.order and bool(s.mask[x])
    return x in s


def check_result(report: VerificationReport, name: str) -> CheckResult:
    """The result of the check called ``name`` in a verification report."""
    for c in report.checks:
        if c.check_name == name:
            return c
    raise KeyError(name)


def truth_table_cells(verdicts) -> dict[str, Counter]:
    """For each check that states an equivalence, how many of the verdict
    rows it applies to reach each cell of its truth table. A cell is a
    string of T and F, one letter per side:

    - ``nonradical_complemented_iff_k2``: Gamma_I(R) complemented, and K^2.
      A graph is K^2 exactly when it has two vertices and is complemented,
      since a complement of a vertex is adjacent to it.
    - ``complemented_transfer``: the two sides of the statement.
    - ``classification_cases``: case 1, and case 2.
    - ``complemented_iff_uniquely_complemented``: Gamma_I(R) complemented,
      and uniquely complemented.
    - ``radical_equivalence_chain``: the five flags, Gamma_I(R)'s two,
      Gamma(R/I)'s two and von Neumann regularity of R/I.

    Applicability is read off each check's hypotheses, as in ``verifier``.
    """

    def cell(*sides):
        return "".join("T" if side else "F" for side in sides)

    names = (
        "nonradical_complemented_iff_k2",
        "complemented_transfer",
        "classification_cases",
        "complemented_iff_uniquely_complemented",
        "radical_equivalence_chain",
    )
    cells = {name: Counter() for name in names}
    for v in verdicts:
        zero, radical, prime = len(v.ideal_members) == 1, v.ideal_is_radical, v.ideal_is_prime
        gi_c, gq_c = v.gi_complemented, v.quotient_graph_complemented
        if not radical and not zero:
            cells["nonradical_complemented_iff_k2"][cell(gi_c, gi_c and v.gi_vertex_count == 2)] += 1
        if not zero and not prime:
            left = gi_c and v.quotient_vertex_count >= 2
            cells["complemented_transfer"][cell(left, gq_c and radical)] += 1
            case1 = v.quotient_z_count == 2 and len(v.ideal_members) == 2
            cells["classification_cases"][cell(case1, gq_c and radical)] += 1
        if radical or not zero:
            cells["complemented_iff_uniquely_complemented"][cell(gi_c, v.gi_uniquely_complemented)] += 1
        if radical:
            flags = (gi_c, v.gi_uniquely_complemented, gq_c, v.quotient_graph_uniquely_complemented, v.quotient_vnr)
            cells["radical_equivalence_chain"][cell(*flags)] += 1
    return cells


def zn_zero_divisors(n: int) -> set[int]:
    return {x for x in range(n) if any((x * y) % n == 0 for y in range(1, n))}


def zn_nilpotents(n: int) -> set[int]:
    out = set()
    for x in range(n):
        p = x % n
        for _ in range(n):
            if p == 0:
                out.add(x)
                break
            p = (p * x) % n
    return out


def zn_units(n: int) -> set[int]:
    return {x for x in range(n) if gcd(x, n) == 1}


def zn_ideal(n: int, gens) -> set[int]:
    g = gcd(n, *gens) if gens else n
    return {x for x in range(n) if x % g == 0}


def zn_gamma_ideal(n: int, gens) -> tuple[list[int], set[tuple[int, int]]]:
    """Vertices and edges of the ideal-based graph over Z_n, by brute force."""
    ideal = zn_ideal(n, gens)
    outside = [x for x in range(n) if x not in ideal]
    verts = sorted(x for x in outside if any((x * y) % n in ideal for y in outside))
    edges = {
        (x, y)
        for i, x in enumerate(verts)
        for y in verts[i + 1 :]
        if (x * y) % n in ideal
    }
    return verts, edges


def squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def graph_orthogonal(adj: dict, a, b) -> bool:
    return b in adj[a] and not (adj[a] & adj[b])


def graph_similar(adj: dict, a, b) -> bool:
    return a == b or (b not in adj[a] and adj[a] == adj[b])


def graph_complemented(adj: dict) -> bool:
    return all(any(graph_orthogonal(adj, a, b) for b in adj if b != a) for a in adj)


def graph_uniquely_complemented(adj: dict) -> bool:
    if not graph_complemented(adj):
        return False
    for a in adj:
        comps = [b for b in adj if b != a and graph_orthogonal(adj, a, b)]
        for b in comps:
            for c in comps:
                if not graph_similar(adj, b, c):
                    return False
    return True


def is_connected(g) -> tuple[bool, int | None]:
    """(connected, diameter) of a ``SimpleGraph``; the empty graph counts as
    connected with diameter 0.

    Runs the breadth-first search from every vertex at once: after k rounds
    ``reach`` holds the pairs at distance at most k.
    """
    a = g.adj.astype(np.float32)
    reach = np.eye(len(g.vertices), dtype=bool)
    rounds = 0
    while True:
        grown = reach | ((reach.astype(np.float32) @ a) > 0)
        if (grown == reach).all():
            break
        reach, rounds = grown, rounds + 1
    return (True, rounds) if reach.all() else (False, None)


def dense_orth(adj: np.ndarray) -> np.ndarray:
    """Orthogonal pairs of a loop-free boolean adjacency matrix from the full
    common-neighbor product A @ A, one row per vertex."""
    a = adj.astype(np.float32)
    return adj & ((a @ a) == 0)


def per_class_orth(adj: np.ndarray) -> np.ndarray:
    """Orthogonal pairs from the common-neighbor product of one row per class
    of equal rows, R @ A in float32 through BLAS, each vertex reading its
    class's row: the library's computation before the class-graph test."""
    first, labels = unpacked_row_classes(adj)
    a = adj.astype(np.float32)
    return adj & ((a[first] @ a) == 0)[labels]


def unpacked_row_classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``row_classes`` by ``np.unique`` over the unpacked boolean rows, each
    row one void key of one byte per column."""
    rows = np.ascontiguousarray(rows, dtype=bool)
    if rows.shape[1] == 0:
        return np.zeros(min(1, rows.shape[0]), dtype=np.intp), np.zeros(rows.shape[0], dtype=np.intp)
    keys = rows.view(np.dtype((np.void, rows.shape[1])))[:, 0]
    _, first, labels = np.unique(keys, return_index=True, return_inverse=True)
    return first, labels


def dense_uniquely_complemented(adj: np.ndarray) -> bool:
    """Every vertex has a complement in ``dense_orth``, and all complements
    of a vertex have the adjacency row of its first one."""
    orth = dense_orth(adj)
    return bool(orth.any(axis=1).all()) and all(
        (adj[np.flatnonzero(row)] == adj[row.argmax()]).all() for row in orth
    )


def adj_from_edges(verts, edges) -> dict:
    adj = {v: set() for v in verts}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def graph_from_edges(vertices, edges) -> SimpleGraph:
    """A ``SimpleGraph`` on the vertex keys ``vertices`` with the undirected
    ``edges`` given as key pairs. A self-loop or an edge on an unknown key
    raises ValueError."""
    vs = sorted(int(v) for v in vertices)
    pos = {v: k for k, v in enumerate(vs)}
    adj = np.zeros((len(vs), len(vs)), dtype=bool)
    for a, b in edges:
        if a == b:
            raise ValueError("self-loops are not allowed")
        if a not in pos or b not in pos:
            raise ValueError(f"edge ({a},{b}) uses an unknown vertex")
        adj[pos[a], pos[b]] = adj[pos[b], pos[a]] = True
    return SimpleGraph(vs, adj)


def edge_keys(g: SimpleGraph) -> list[tuple[int, int]]:
    """The edges of ``g`` as key pairs (a, b) with a < b, in row-major order."""
    return [(g.vertices[i], g.vertices[j]) for i, j in g.edges()]


def _additive_order(r: FiniteRing, x: int) -> int:
    k, s = 1, x
    while s != r.zero:
        s = int(r.add_table[s, x])
        k += 1
    return k


def is_isomorphic_small(a: FiniteRing, b: FiniteRing, *, max_order: int = ISO_SEARCH_CAP) -> bool:
    """Brute-force ring isomorphism test for small rings (order cap 12).

    Searches for a bijection mapping zero to zero and one to one that
    preserves both tables, with constraint propagation so the search
    closes each partial map under the operations.
    """
    if a.order > max_order or b.order > max_order:
        raise CapExceededError(f"isomorphism search capped at order {max_order}")
    if a.order != b.order:
        return False
    n = a.order

    nil_a, nil_b = members(nilpotents(a)), members(nilpotents(b))
    zd_a, zd_b = members(zero_divisors(a)), members(zero_divisors(b))
    prof_a = [(_additive_order(a, x), x in nil_a, x in zd_a) for x in range(n)]
    prof_b = [(_additive_order(b, x), x in nil_b, x in zd_b) for x in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return False
    if prof_a[a.zero] != prof_b[b.zero] or prof_a[a.one] != prof_b[b.one]:
        return False

    add_a, mul_a = a.add_table.tolist(), a.mul_table.tolist()
    add_b, mul_b = b.add_table.tolist(), b.mul_table.tolist()

    def propagate(fwd: dict, inv: dict, fresh: list) -> bool:
        while fresh:
            u = fresh.pop()
            fu = fwd[u]
            for ta, tb in ((add_a, add_b), (mul_a, mul_b)):
                row_a, row_b = ta[u], tb[fu]
                for v, fv in list(fwd.items()):
                    s, t = row_a[v], row_b[fv]
                    if s in fwd:
                        if fwd[s] != t:
                            return False
                    elif t in inv:
                        return False
                    else:
                        fwd[s] = t
                        inv[t] = s
                        fresh.append(s)
        return True

    def search(fwd: dict, inv: dict) -> bool:
        if len(fwd) == n:
            return True
        u = min(x for x in range(n) if x not in fwd)
        for w in range(n):
            if w in inv or prof_b[w] != prof_a[u]:
                continue
            f2, i2 = dict(fwd), dict(inv)
            f2[u] = w
            i2[w] = u
            if propagate(f2, i2, [u]) and search(f2, i2):
                return True
        return False

    fwd = {a.zero: b.zero, a.one: b.one}
    inv = {b.zero: a.zero, b.one: a.one}
    if not propagate(fwd, inv, [a.zero, a.one]):
        return False
    return search(fwd, inv)


def square_zero_ring(k: int) -> FiniteRing:
    """F_2[x_1..x_k]/(x_1..x_k)^2, order 2^(k+1): for k >= 2 its maximal
    ideal is not principal, which no spec-built ring has. Element a + v
    (a in F_2, v in F_2^k) is index a + 2v."""
    n = 2 << k
    i = np.arange(n)
    a, v = i & 1, i >> 1
    add = i[:, None] ^ i[None, :]
    mul = (a[:, None] & a[None, :]) | ((a[:, None] * v[None, :]) ^ (a[None, :] * v[:, None])) << 1
    return FiniteRing(add, mul, [str(x) for x in range(n)], f"square-zero:{k}", zero=0, one=1)


def relabelled_ring(r: FiniteRing, seed: int = 0) -> FiniteRing:
    """``r`` with element x renamed p[x] for a seeded permutation p of its
    indices, which must move zero and one off indices 0 and 1: no spec-built
    ring has its zero anywhere but 0."""
    p = np.random.default_rng(seed).permutation(r.order)
    assert p[r.zero] > 1 and p[r.one] > 1, (r.spec, seed)
    inv = np.argsort(p)  # new index -> old index
    add = p[r.add_table.astype(np.intp)[np.ix_(inv, inv)]]
    mul = p[r.mul_table.astype(np.intp)[np.ix_(inv, inv)]]
    names = [str(x) for x in range(r.order)]
    return FiniteRing(add, mul, names, f"relabelled:{r.spec}", zero=int(p[r.zero]), one=int(p[r.one]))


# --- set-based ideals: frozenset members closed by an additive fixpoint ------


def _principal_members(r: FiniteRing, g: int) -> frozenset[int]:
    # Rg is already closed under addition (r1 g + r2 g = (r1+r2) g)
    return frozenset(int(x) for x in r.mul_table[:, g])


def _additive_closure(r: FiniteRing, seed) -> frozenset[int]:
    closed = set(int(x) for x in seed)
    closed.add(r.zero)
    frontier = sorted(closed)
    add = r.add_table
    while frontier:
        sums = add[np.ix_(frontier, sorted(closed))].ravel()
        new = set(sums.tolist()) - closed
        closed |= new
        frontier = sorted(new)
    return frozenset(closed)


def set_generate_ideal(r: FiniteRing, gens) -> tuple[frozenset[int], tuple[int, ...]]:
    """(members, generators) of the smallest ideal containing ``gens``."""
    gen_list: list[int] = []
    for g in gens:
        if int(g) not in gen_list:
            gen_list.append(int(g))
    seed: set[int] = {r.zero}
    for g in gen_list:
        seed |= _principal_members(r, g)
    return _additive_closure(r, seed), tuple(gen_list)


def set_minimal_generators(r: FiniteRing, members: frozenset[int]) -> tuple[int, ...]:
    gens: list[int] = []
    covered: frozenset[int] = frozenset({r.zero})
    for m in sorted(members):
        if m not in covered:
            gens.append(m)
            covered = _additive_closure(r, covered | _principal_members(r, m))
    return tuple(gens)


def set_all_ideals(r: FiniteRing) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """(members, generators) of every ideal, sorted by (size, members)."""
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
                found[s] = set_minimal_generators(r, s)
                work.append(s)
    return sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


def set_radical(r: FiniteRing, members: frozenset[int]) -> tuple[frozenset[int], tuple[int, ...]]:
    """(members, generators) of the radical, by repeated squaring."""
    e = np.arange(r.order, dtype=np.intp)
    for _ in range(max(1, (r.order - 1).bit_length())):
        e = r.mul_table[e, e]
    rad = frozenset(x for x in range(r.order) if int(e[x]) in members)
    return rad, set_minimal_generators(r, rad)


def set_is_prime(r: FiniteRing, members: frozenset[int]) -> bool:
    outside = [x for x in range(r.order) if x not in members]
    return bool(outside) and all(
        int(r.mul_table[x, y]) not in members for x in outside for y in outside
    )


def brute_force_ideals(r: FiniteRing) -> set[frozenset[int]]:
    """Every subset containing 0 and closed under + and under multiplication
    by R, by scanning all 2^(order-1) such subsets (keep the order small)."""
    n = r.order
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    subsets = bits[bits[:, r.zero]]
    add_closed = ~(
        subsets[:, :, None] & subsets[:, None, :] & ~subsets[:, r.add_table]
    ).any(axis=(1, 2))
    mul_closed = ~(subsets[:, None, :] & ~subsets[:, r.mul_table]).any(axis=(1, 2))
    return {frozenset(np.flatnonzero(s).tolist()) for s in subsets[add_closed & mul_closed]}


# --- polynomial quotients by digit convolution --------------------------------

_CONV_CHUNK_CELLS = 1 << 22


def conv_poly_quotient_tables(p: int, coeffs) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], str]:
    """(add_table, mul_table, element_names, spec) of Z_p[x]/(f), f monic
    and given constant-term first, with no argument checks: sums are
    digitwise mod p, and products convolve the digit vectors and reduce
    x^m for m < 2k-1 through a matrix of residues mod f."""
    cs = [int(c) for c in coeffs]
    k = len(cs) - 1
    order = p**k

    digits = np.zeros((order, k), dtype=np.intp)
    v = np.arange(order, dtype=np.intp)
    for j in range(k):
        digits[:, j] = v % p
        v = v // p
    powers = p ** np.arange(k, dtype=np.intp)

    add = np.empty((order, order), dtype=np.intp)
    step = max(1, _CONV_CHUNK_CELLS // (order * k))
    for lo in range(0, order, step):
        hi = min(order, lo + step)
        add[lo:hi] = ((digits[lo:hi, None, :] + digits[None, :, :]) % p) @ powers

    # x^m mod f for m < 2k-1; x^k == -(c0 + c1 x + ... + c_{k-1} x^{k-1})
    red = np.zeros((2 * k - 1, k), dtype=np.intp)
    for m in range(k):
        red[m, m] = 1
    head = np.asarray([(-c) % p for c in cs[:k]], dtype=np.intp)
    for m in range(k, 2 * k - 1):
        prev = red[m - 1]
        shifted = np.zeros(k, dtype=np.intp)
        shifted[1:] = prev[: k - 1]
        red[m] = (shifted + prev[k - 1] * head) % p

    mul = np.empty((order, order), dtype=np.intp)
    width = 2 * k - 1
    step = max(1, _CONV_CHUNK_CELLS // (order * width))
    for lo in range(0, order, step):
        hi = min(order, lo + step)
        conv = np.zeros((hi - lo, order, width), dtype=np.intp)
        for j in range(k):
            conv[:, :, j : j + k] += digits[lo:hi, j][:, None, None] * digits[None, :, :]
        mul[lo:hi] = ((conv @ red) % p) @ powers

    names = tuple(_poly_name(digits[i], p) for i in range(order))
    spec = f"polyq:{p}:{','.join(str(c) for c in cs)}"
    return add, mul, names, spec


def horner_poly_quotient_tables(p: int, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """(add_table, mul_table) of Z_p[x]/(f) as int64 arrays, f monic and
    given constant-term first, with no argument checks: addition is that of
    Z_p^k on base-p digits, and row i >= p of the product is filled from
    rows i % p and i // p by Horner's rule, one row at a time."""
    cs = [int(c) for c in coeffs]
    k = len(cs) - 1
    order = p**k
    digit = np.arange(p, dtype=np.int64)
    add = zp_add = (digit[:, None] + digit[None, :]) % p
    for _ in range(k - 1):
        n = len(add)
        add = (add[:, None, :, None] * np.int64(p) + zp_add[None, :, None, :]).reshape(n * p, n * p)

    idx = np.arange(order, dtype=np.int64)
    mul = np.zeros((order, order), dtype=np.int64)
    for c in range(1, p):
        mul[c] = add[mul[c - 1], idx]
    top = p ** (k - 1)
    h = sum(((-c) % p) * p**j for j, c in enumerate(cs[:k]))
    times_x = add[(idx % top) * p, mul[idx // top, h]]
    for i in range(p, order):
        mul[i] = add[mul[i % p], times_x[mul[i // p]]]
    return add, mul


# --- ring axioms by a scan over every triple ----------------------------------

_AXIOM_CHUNK_CELLS = 1 << 22


def cubic_validate_ring_axioms(r: FiniteRing) -> None:
    """Check every commutative-ring axiom on every pair and triple of
    elements, in chunks of rows to bound memory; raises RingConsistencyError
    on the first failure found."""
    n, A, M = r.order, r.add_table, r.mul_table
    idx = np.arange(n, dtype=np.intp)
    if not (A == A.T).all():
        i, j = np.argwhere(A != A.T)[0]
        raise RingConsistencyError(f"addition not commutative at ({i},{j})")
    if not (M == M.T).all():
        i, j = np.argwhere(M != M.T)[0]
        raise RingConsistencyError(f"multiplication not commutative at ({i},{j})")
    if not (A[r.zero] == idx).all():
        raise RingConsistencyError("zero is not an additive identity")
    if not (M[r.one] == idx).all():
        raise RingConsistencyError("one is not a multiplicative identity")
    if not (A == r.zero).any(axis=1).all():
        x = int(np.flatnonzero(~(A == r.zero).any(axis=1))[0])
        raise RingConsistencyError(f"element {x} has no additive inverse")

    step = max(1, _AXIOM_CHUNK_CELLS // (n * n))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        for table, label in ((A, "addition"), (M, "multiplication")):
            lhs = table[table[lo:hi]]
            rhs = table[lo:hi][:, table]
            if not (lhs == rhs).all():
                i, b, c = np.argwhere(lhs != rhs)[0]
                raise RingConsistencyError(f"{label} not associative at ({lo + i},{b},{c})")
        mrows = M[lo:hi]
        lhs = mrows[:, A]
        rhs = A[mrows[:, :, None], mrows[:, None, :]]
        if not (lhs == rhs).all():
            i, b, c = np.argwhere(lhs != rhs)[0]
            raise RingConsistencyError(f"distributivity fails at ({lo + i},{b},{c})")


def bfs_additive_generators(r: FiniteRing) -> list[int]:
    """The greedy additive generators found by a breadth-first search: each
    round takes the least nonzero element not yet reached and closes the
    reached set under s -> s + g for every g taken so far, one level of
    sums at a time."""
    A = r.add_table
    nonzero = np.arange(r.order) != r.zero
    reached = np.zeros(r.order, dtype=bool)
    gens: list[int] = []
    while not reached.all():
        g = int(np.flatnonzero(nonzero & ~reached)[0])
        fresh = np.append(A[reached, g], g)
        gens.append(g)
        while fresh.size:
            fresh = np.unique(fresh[~reached[fresh]])
            reached[fresh] = True
            fresh = A[np.ix_(fresh, gens)].ravel()
    return gens


def whole_table_validate_ring_axioms(r: FiniteRing) -> None:
    """The generator-based validator on whole-table temporaries: each check
    compares order x order arrays at once, the three identities one
    generator at a time over every x, with the generators of
    ``bfs_additive_generators``."""
    n, A, M = r.order, r.add_table, r.mul_table
    idx = np.arange(n, dtype=np.intp)
    if not (A == A.T).all():
        i, j = np.argwhere(A != A.T)[0]
        raise RingConsistencyError(f"addition not commutative at ({i},{j})")
    if not (M == M.T).all():
        i, j = np.argwhere(M != M.T)[0]
        raise RingConsistencyError(f"multiplication not commutative at ({i},{j})")
    if not (A[r.zero] == idx).all():
        raise RingConsistencyError("zero is not an additive identity")
    if not (M[r.one] == idx).all():
        raise RingConsistencyError("one is not a multiplicative identity")
    if not (A == r.zero).any(axis=1).all():
        x = int(np.flatnonzero(~(A == r.zero).any(axis=1))[0])
        raise RingConsistencyError(f"element {x} has no additive inverse")

    gens = bfs_additive_generators(r)
    identities = (
        ("addition not associative", lambda g: A[A[g]] != np.take(A, A[g], axis=1)),
        ("distributivity fails", lambda g: np.take(M, A[g], axis=1) != np.take_along_axis(A[M[g]], M, 1)),
        ("multiplication not associative", lambda g: M[M[g]] != np.take(M, M[g], axis=1)),
    )
    for label, failing in identities:
        witness = None
        for g in gens:
            bad = failing(g)
            if bad.any():
                x, y = divmod(int(bad.argmax()), n)
                if witness is None or x < witness[0]:
                    witness = (x, g, y)
        if witness is not None:
            x, g, y = witness
            raise RingConsistencyError(f"{label} at ({x},{g},{y})")


# --- per-call table scans, each over the whole order x order table ------------


def scan_zero_divisors(r: FiniteRing) -> np.ndarray:
    """Z(R) as a mask, from the whole comparison ``mul_table == zero``."""
    hits = r.mul_table == r.zero
    hits[:, r.zero] = False
    return hits.any(axis=1)


def scan_units(r: FiniteRing) -> np.ndarray:
    return (r.mul_table == r.one).any(axis=1)


def scan_nilpotents(r: FiniteRing) -> np.ndarray:
    e = np.arange(r.order, dtype=np.intp)
    for _ in range(max(1, (r.order - 1).bit_length())):
        e = r.mul_table.diagonal().take(e)
    return e == r.zero


def column_von_neumann_regular(r: FiniteRing) -> bool:
    """Every x has a y with (x*y)*x = x, reading column x at row x's entries."""
    mul = r.mul_table
    for x in range(r.order):
        if not (mul[:, x].take(mul[x]) == x).any():
            return False
    return True


def loop_von_neumann_regular(r: FiniteRing) -> bool:
    """Every x has a y with x*(x*y) = x, one row of ``mul_table`` at a
    time, stopping at the first non-regular x."""
    mul = r.mul_table
    for x in range(r.order):
        row = mul[x]
        if not (row.take(row) == x).any():
            return False
    return True


def gather_von_neumann_regular(r: FiniteRing) -> bool:
    """Every x has a y with x*(x*y) = x, row x read at its own entries
    through one flat ``take`` of x*order + x*y per row block, stopping at
    the first block holding a non-regular x."""
    n, mul = r.order, r.mul_table
    cells = mul.ravel()
    row_starts = np.arange(0, n * n, n, dtype=np.intp)
    own = np.arange(n, dtype=mul.dtype)
    for rows in row_blocks(n, n):
        products = cells.take(mul[rows] + row_starts[rows, None])
        if not (products == own[rows, None]).any(axis=1).all():
            return False
    return True


def full_row_vertex_mask(i: Ideal) -> np.ndarray:
    """The vertex set of Gamma_I(R) as a mask: the whole row of every x
    outside I gathered through the membership mask, in row blocks."""
    r = i.ring
    outside = ~i.mask
    rows = np.flatnonzero(outside)
    hit = np.zeros(r.order, dtype=bool)
    for block in row_blocks(len(rows), r.order):
        xs = rows[block]
        hit[xs] = (i.mask[r.mul_table[xs].astype(np.intp)] & outside).any(axis=1)
    return hit


def column_quotient_tables(r: FiniteRing, i: Ideal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(add, mul, coset map) of R/I on least coset representatives, each
    coset read off a column gather of the addition table at I's members."""
    reps = r.add_table[:, np.flatnonzero(i.mask)].min(axis=1)
    rep_values = np.unique(reps)
    cmap = np.searchsorted(rep_values, reps).astype(np.intp)
    add = cmap[r.add_table.take(rep_values, axis=0).take(rep_values, axis=1)]
    mul = cmap[r.mul_table.take(rep_values, axis=0).take(rep_values, axis=1)]
    return add, mul, cmap


def remainder_zn_mul_table(n: int) -> np.ndarray:
    """The multiplication table of Z_n in the table dtype, products formed
    in row blocks of the narrowest unsigned dtype holding (n-1)^2 and
    reduced with ``%``."""
    mul = np.empty((n, n), dtype=np.min_scalar_type(n - 1))
    wide = np.min_scalar_type((n - 1) ** 2)
    idx = np.arange(n, dtype=wide)
    for rows in row_blocks(n, n):
        block = np.multiply.outer(idx[rows], idx)
        block %= wide.type(n)
        mul[rows] = block
    return mul


def triple_scan_is_prime(i: Ideal) -> bool:
    """Proper, and no x, y outside I with x*y in I, on the product mask."""
    if not i.is_proper:
        return False
    prod_in = table_mask(i.ring.mul_table, i.mask)
    outside = ~i.mask
    return not bool((prod_in & outside[:, None] & outside[None, :]).any())


def _product_mask_graph(in_i: np.ndarray, prod_in: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """(vertices, adjacency) of the graph whose vertices are the x outside
    ``in_i`` with ``prod_in[x, y]`` for some y outside, read off the order x
    order mask ``prod_in`` of the products lying in ``in_i``."""
    outside = ~in_i
    varr = np.flatnonzero(outside & (prod_in & outside[None, :]).any(axis=1))
    adj = prod_in[np.ix_(varr, varr)]
    np.fill_diagonal(adj, False)
    return tuple(varr.tolist()), adj


def dense_gamma_ideal(r: FiniteRing, i: Ideal) -> tuple[tuple[int, ...], np.ndarray]:
    return _product_mask_graph(i.mask, table_mask(r.mul_table, i.mask))


def dense_gamma(r: FiniteRing) -> tuple[tuple[int, ...], np.ndarray]:
    return _product_mask_graph(np.arange(r.order) == r.zero, r.mul_table == r.zero)


def every_sum_all_ideals(r: FiniteRing) -> list[Ideal]:
    """``all_ideals`` by the loop that forms the sum of every pair of ideals
    found, contained pairs included, with the same order and generators."""
    principal = np.zeros((r.order, r.order), dtype=bool)
    principal[np.arange(r.order)[:, None], r.mul_table] = True
    found: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {}
    for g, m in enumerate(principal):
        found.setdefault(m.tobytes(), (m, (g,)))
    for cur, _ in list(found.values()):
        for other, _ in list(found.values()):
            s = _sum_mask(r, cur, other)
            key = s.tobytes()
            if key not in found:
                found[key] = (s, minimal_generators(r, s))
    ideals = [Ideal(r, m, gens) for m, gens in found.values()]
    ideals.sort(key=lambda i: (len(i), i.sorted_members()))
    return ideals


def pairwise_all_ideals(r: FiniteRing) -> list[Ideal]:
    """``all_ideals`` by adding each principal ideal, in turn, to every
    ideal found so far, with two containment tests per pair and a sum only
    for incomparable pairs; same order and generators."""
    principal = np.zeros((r.order, r.order), dtype=bool)
    principal[np.arange(r.order)[:, None], r.mul_table] = True
    found: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {}
    for g, m in enumerate(principal):
        found.setdefault(m.tobytes(), (m, (g,)))
    for cur, _ in list(found.values()):
        for other, _ in list(found.values()):
            if not (other & ~cur).any() or not (cur & ~other).any():
                continue  # one contains the other, so the sum is found already
            s = _sum_mask(r, cur, other)
            key = s.tobytes()
            if key not in found:
                found[key] = (s, minimal_generators(r, s))
    ideals = [Ideal(r, m, gens) for m, gens in found.values()]
    ideals.sort(key=lambda i: (len(i), i.sorted_members()))
    return ideals


# --- eager element names and the un-memoised quotient side --------------------


def eager_element_names(node) -> tuple[str, ...]:
    """The element names of the ring a Zn, polyq or prod spec node describes,
    built at once: i for Z_n, the base-p digit polynomial for polyq, and
    "(x,y)" over row-major pairs for a product."""
    if isinstance(node, ZnNode):
        return tuple(str(i) for i in range(node.n))
    if isinstance(node, PolyqNode):
        p, k = node.p, len(node.coeffs) - 1
        return tuple(_poly_name([i // p**j % p for j in range(k)], p) for i in range(p**k))
    if isinstance(node, ProdNode):
        left, right = eager_element_names(node.left), eager_element_names(node.right)
        return tuple(f"({x},{y})" for x in left for y in right)
    raise TypeError(f"no eager names for {node!r}")


def eager_quotient_names(r: FiniteRing, coset_map: np.ndarray) -> tuple[str, ...]:
    """The name "x+I" of each coset, x its least element, in coset order."""
    cosets = int(coset_map.max()) + 1
    return tuple(f"{r.element_names[int(np.flatnonzero(coset_map == c)[0])]}+I" for c in range(cosets))


def unmemoised_verdict(r: FiniteRing, ideal: Ideal) -> PropertyVerdict:
    """A pair's verdict with its quotient side computed afresh: the
    total-quotient guard, Gamma(R/I) and its two predicates, von Neumann
    regularity and |Z(R/I)|; radicality from ``is_radical``."""
    q, _ = quotient_ring(r, ideal)
    total_quotient_ring(q)
    gi, gq = gamma_ideal(r, ideal), gamma(q)
    return PropertyVerdict(
        ring_spec=r.spec,
        ideal_members=ideal.sorted_members(),
        ideal_is_radical=is_radical(ideal),
        ideal_is_prime=is_prime(ideal),
        quotient_vertex_count=gq.vertex_count,
        gi_vertex_count=gi.vertex_count,
        gi_complemented=gi.is_complemented(),
        gi_uniquely_complemented=gi.is_uniquely_complemented(),
        quotient_graph_complemented=gq.is_complemented(),
        quotient_graph_uniquely_complemented=gq.is_uniquely_complemented(),
        quotient_vnr=is_von_neumann_regular(q),
        quotient_z_count=len(zero_divisors(q)),
    )
