"""Metamorphic tests: an isomorphic copy of a ring gives the same verdicts.

Every spec-built ring has zero at element 0 and one at element 1, so no
catalogue can see code that takes an element's index for its role. Each
ring here is compared with a seeded relabelling that moves zero and one
above index 1 (``oracles.relabelled_ring``). Over the proper ideals, the
multisets of (|I|, the verdict fields other than ``ring_spec`` and
``ideal_members``, each check's (applicable, failed) pair) must be equal.
Witnesses name elements, so only whether a check failed is compared.
The same multisets compare the spec builders on rings they build twice:
Z_ab with Z_a x Z_b for coprime a and b, A x B with B x A, both bracketings
of a triple product, Z_n/(d) with Z_d for d dividing n, and F_p[x]/(gh)
with F_p[x]/(g) x F_p[x]/(h) for coprime g and h.
"""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np

from zdglab import all_ideals, analyze_pair, build_ring, default_catalogue
from zdglab.verifier import CHECKS

from oracles import relabelled_ring


def first_moving_seed(r):
    """The first seed whose permutation takes zero and one above index 1,
    as ``relabelled_ring`` requires (none exists below order 4)."""
    for seed in itertools.count():
        p = np.random.default_rng(seed).permutation(r.order)
        if p[r.zero] > 1 and p[r.one] > 1:
            return seed


def pair_rows(r, ideal_cap):
    """The multiset of label-free rows of every proper ideal of ``r``."""
    rows = Counter()
    for ideal in all_ideals(r, max_order=ideal_cap):
        if ideal.is_proper:
            a = analyze_pair(r, ideal)
            verdict = dataclasses.replace(a.verdict, ring_spec="", ideal_members=())
            outcomes = tuple((applicable, failure is not None) for applicable, failure in (fn(a) for _, fn in CHECKS))
            rows[len(ideal), verdict, outcomes] += 1
    return rows


def relabelled_rows(r, ideal_cap):
    return pair_rows(relabelled_ring(r, first_moving_seed(r)), ideal_cap)


def test_relabelled_default_rings_give_the_same_verdicts():
    rings = [r for r in map(build_ring, (e.spec for e in default_catalogue())) if r.order >= 4]
    assert len(rings) == 349  # 356 less the 3 rings of order 2 and the 4 of order 3
    pairs, mismatched = 0, []
    for r in rings:
        rows = pair_rows(r, 256)
        pairs += sum(rows.values())
        if relabelled_rows(r, 256) != rows:
            mismatched.append(r.spec)
    assert mismatched == []
    assert pairs == 1253  # 1260 less the one pair of each of those 7 fields


def test_relabelled_zn_1024_gives_the_same_verdicts():
    # 1024 elements span several row blocks of every blocked table scan
    r = build_ring("Zn:1024")
    rows = pair_rows(r, 1024)
    assert sum(rows.values()) == 10
    assert relabelled_rows(r, 1024) == rows


def test_zn_of_coprime_product_gives_the_verdicts_of_the_direct_product():
    # Z_ab is Z_a x Z_b for coprime a and b (Chinese remainder theorem), so
    # build_zn is checked against the pair tables of direct_product on every
    # such ring of order at most 256 (one row block each), and its row
    # recurrence past the first block on Z_1155 = Z_33 x Z_35
    factorizations = [(a, b) for a in range(2, 16) for b in range(a + 1, 129) if a * b <= 256 and math.gcd(a, b) == 1]
    assert len(factorizations) == 277
    zn_rows, mismatched = {}, []
    for a, b in factorizations:
        if a * b not in zn_rows:
            zn_rows[a * b] = pair_rows(build_ring(f"Zn:{a * b}"), 256)
        if pair_rows(build_ring(f"prod(Zn:{a},Zn:{b})"), 256) != zn_rows[a * b]:
            mismatched.append((a, b))
    assert mismatched == []
    assert len(zn_rows) == 185
    rows = pair_rows(build_ring("Zn:1155"), 1155)
    assert sum(rows.values()) == 15
    assert pair_rows(build_ring("prod(Zn:33,Zn:35)"), 1155) == rows



PRODUCT_FACTORS = ("Zn:2", "Zn:3", "Zn:4", "polyq:2:0,0,1", "Zn:6", "polyq:2:1,1,1")


def spec_rows(spec):
    return pair_rows(build_ring(spec), 256)


def test_products_in_either_order_give_the_same_verdicts():
    pairs = list(itertools.combinations(PRODUCT_FACTORS, 2))
    mismatched = [(a, b) for a, b in pairs if spec_rows(f"prod({a},{b})") != spec_rows(f"prod({b},{a})")]
    assert mismatched == []


def test_triple_products_in_any_order_and_bracketing_give_the_same_verdicts():
    # (A x B) x C and A x (B x C) for every order of three distinct factors
    mismatched = []
    for factors in itertools.combinations(PRODUCT_FACTORS[:4], 3):
        specs = [
            spec
            for a, b, c in itertools.permutations(factors)
            for spec in (f"prod(prod({a},{b}),{c})", f"prod({a},prod({b},{c}))")
        ]
        rows = spec_rows(specs[0])
        mismatched += [spec for spec in specs[1:] if spec_rows(spec) != rows]
    assert mismatched == []


def test_quotients_of_zn_give_the_verdicts_of_the_smaller_zn():
    # Z_n/(d) is Z_d for every divisor 1 < d < n
    divisions = [(n, d) for n in range(4, 49) for d in range(2, n) if n % d == 0]
    assert len(divisions) == 103
    zd_rows = {d: spec_rows(f"Zn:{d}") for d in {d for _, d in divisions}}
    mismatched = [(n, d) for n, d in divisions if spec_rows(f"quot(Zn:{n};{d})") != zd_rows[d]]
    assert mismatched == []


def poly_product(g, h, p):
    """The coefficients of g * h over F_p, constant term first."""
    out = [0] * (len(g) + len(h) - 1)
    for i, a in enumerate(g):
        for j, b in enumerate(h):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def test_polynomial_quotients_split_over_coprime_factors():
    # F_p[x]/(gh) is F_p[x]/(g) x F_p[x]/(h) for coprime monic g and h
    # (Chinese remainder theorem): x + 1 is prime to x and to x^2, x^2 + x + 1
    # is irreducible over F_2, and (x + 1)^2 is x^2 + 1 over F_2 and
    # x^2 + 2x + 1 over F_3
    x, x1, x2 = (0, 1), (1, 1), (0, 0, 1)
    splits = [(p, x, x1) for p in (2, 3, 5, 7)] + [(p, x2, x1) for p in (2, 3, 5)]
    splits += [(2, x, (1, 1, 1)), (2, x2, (1, 0, 1)), (3, x2, (1, 2, 1))]
    mismatched = []
    for p, g, h in splits:
        f, g_spec, h_spec = (f"polyq:{p}:" + ",".join(map(str, c)) for c in (poly_product(g, h, p), g, h))
        if spec_rows(f) != spec_rows(f"prod({g_spec},{h_spec})"):
            mismatched.append((p, g, h))
    assert mismatched == []
