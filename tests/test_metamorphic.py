"""Metamorphic tests: an isomorphic copy of a ring gives the same verdicts.

Every spec-built ring has zero at element 0 and one at element 1, so no
catalogue can see code that takes an element's index for its role. Each
ring here is compared with a seeded relabelling that moves zero and one
above index 1 (``oracles.relabelled_ring``). Over the proper ideals, the
multisets of (|I|, the verdict fields other than ``ring_spec`` and
``ideal_members``, each check's (applicable, failed) pair) must be equal.
Witnesses name elements, so only whether a check failed is compared.
The same multisets compare Z_ab with Z_a x Z_b for coprime a and b, two
builders of one ring.
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
