"""Independent oracles for test expectations.

Everything here is computed with plain Python modular arithmetic, naive
set scans over neighbor sets and a brute-force isomorphism search -- no
library graph code -- so the tests can compare the library against a
second, independent route.
"""

from math import gcd

from zdglab import CapExceededError, FiniteRing, nilpotents, zero_divisors

ISO_SEARCH_CAP = 12


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


def adj_from_edges(verts, edges) -> dict:
    adj = {v: set() for v in verts}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


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

    nil_a, nil_b = nilpotents(a).members, nilpotents(b).members
    zd_a, zd_b = zero_divisors(a).members, zero_divisors(b).members
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
