"""Catalogue-wide verification of the complementation classification for
ideal-based zero-divisor graphs.

Each check encodes one universally quantified statement about a pair
(ring R, proper ideal I): the cardinality identity |V(Gamma_I(R))| =
|I| * |V(Gamma(R/I))|, the behaviour of complementation under the
quotient map, the K^2 classification for nonzero non-radical ideals, the
orthogonality and annihilator lifting facts for radical ideals, and the
five-way equivalence with von Neumann regularity of R/I. A check's
applicability mirrors the statement's hypotheses; pairs where the
hypotheses fail are counted as tested but not applicable, never as passes.

Failures carry full witnesses (vertex indices, the separating alpha) so a
counterexample can be replayed in isolation.

Within one ``run_catalogue`` call each process keeps a run memo
(``rings.run_memo``). Its quotient entries hold the quotient side of a pair:
Gamma(R/I) itself, von Neumann regularity of R/I and |Z(R/I)|. Those read
only zero, one and the multiplication table of R/I, and the entries are
keyed on exactly these, so they assume nothing about the ring. Gamma_I(R)
is always built from R's own table. The memo also holds the class graph of
each adjacency matrix decided (see ``graphs``). It is set by
``_set_run_memo`` and is None outside a run. A graph holds no name, no
labels and no ring, so a memoised Gamma(R/I) keeps nothing of R/I but its
matrix. ``verify`` reads no element name, and names are built only on
first read (see ``rings``).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import json

import numpy as np

from . import __version__, rings
from .errors import (
    CapExceededError,
    CatalogueError,
    ImproperIdealError,
    InvalidElementError,
    SpecParseError,
)
from .graphs import SimpleGraph, first_class_split, gamma, gamma_ideal
from .ideals import (
    DEFAULT_IDEAL_ENUMERATION_CAP,
    Ideal,
    all_ideals,
    generate_ideal,
    is_prime,
    is_radical,
    quotient_ring,
)
from .rings import (
    DEFAULT_MAX_ORDER,
    FiniteRing,
    is_von_neumann_regular,
    packed_words,
    row_classes,
    run_memo,
    table_mask,
    total_quotient_ring,
)
from .specs import build_ring, format_spec, parse_catalogue_line

TOOL_VERSION = __version__
ORDERING_KEY = "(ring_spec, ideal_members)"

QUOTIENT_VNR_NOTE = (
    "Total quotient rings are realized as the quotient itself: in a finite "
    "commutative ring every non-zero-divisor is a unit, so the localization "
    "at the regular elements changes nothing. The quotient_vnr flag is von "
    "Neumann regularity computed directly on R/I."
)


@dataclass(frozen=True)
class CatalogueEntry:
    """One catalogue row: a ring spec plus an optional tuple of generator
    tuples restricting which ideals are analyzed (None = every proper ideal)."""

    spec: str
    ideal_filters: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class PropertyVerdict:
    """Per-(ring, ideal) record of the graph-side and ring-side predicates."""

    ring_spec: str
    ideal_members: tuple[int, ...]
    ideal_is_radical: bool
    ideal_is_prime: bool
    quotient_vertex_count: int
    gi_vertex_count: int
    gi_complemented: bool
    gi_uniquely_complemented: bool
    quotient_graph_complemented: bool
    quotient_graph_uniquely_complemented: bool
    quotient_vnr: bool
    quotient_z_count: int


def _set_run_memo(fresh: bool) -> None:
    """Give this process an empty run memo, or none."""
    rings._run_memo = {} if fresh else None


def _quotient_side(q: FiniteRing) -> tuple[SimpleGraph, bool, int]:
    """Gamma(R/I), von Neumann regularity of R/I and |Z(R/I)|: a function
    of zero, one and the multiplication table of R/I alone."""
    total_quotient_ring(q)  # guard: regular elements are units
    return gamma(q), is_von_neumann_regular(q), int(np.count_nonzero(q.zero_divisor_mask))


class PairAnalysis:
    """Everything the checks need about one (ring, proper ideal) pair.

    The quotient side comes from the run memo when it holds R/I's zero,
    one and multiplication table. The zero ideal skips the memo: R/(0) is
    R, whose facts are cached on it, and keying a large R would copy its
    table.
    """

    __slots__ = ("ring", "ideal", "quotient", "coset_map", "gi", "gq", "verdict")

    def __init__(self, ring: FiniteRing, ideal: Ideal, *, _corrupt_graph: bool = False):
        self.ring = ring
        self.ideal = ideal
        q, self.coset_map = quotient_ring(ring, ideal)
        self.quotient = q
        if ideal.is_zero:
            gq, q_vnr, q_z = _quotient_side(q)
        else:
            key = ("quotient", q.zero, q.one, q.mul_table.tobytes())
            gq, q_vnr, q_z = run_memo(key, lambda: _quotient_side(q))
        self.gq = gq
        gi = gamma_ideal(ring, ideal)
        if _corrupt_graph and gi.vertex_count:
            gi = _drop_top_vertex(gi)
        self.gi = gi
        self.verdict = PropertyVerdict(
            ring_spec=ring.spec,
            ideal_members=ideal.sorted_members(),
            ideal_is_radical=is_radical(ideal),
            ideal_is_prime=is_prime(ideal),
            quotient_vertex_count=gq.vertex_count,
            gi_vertex_count=gi.vertex_count,
            gi_complemented=gi.is_complemented(),
            gi_uniquely_complemented=gi.is_uniquely_complemented(),
            quotient_graph_complemented=gq.is_complemented(),
            quotient_graph_uniquely_complemented=gq.is_uniquely_complemented(),
            quotient_vnr=q_vnr,
            quotient_z_count=q_z,
        )


def analyze_pair(ring: FiniteRing, ideal: Ideal, *, _corrupt_graph: bool = False) -> PairAnalysis:
    """Build the quotient, both graphs, and the full PropertyVerdict."""
    return PairAnalysis(ring, ideal, _corrupt_graph=_corrupt_graph)


def _drop_top_vertex(graph: SimpleGraph) -> SimpleGraph:
    # fault-injection hook: deterministically corrupt adjacency data
    return SimpleGraph(graph.vertices[:-1], graph.adj[:-1, :-1])


# --- checks -----------------------------------------------------------------
# Each check maps a PairAnalysis to (applicable, failure-payload-or-None).


def check_cardinality(a: PairAnalysis):
    """|V(Gamma_I(R))| = |I| * |V(Gamma(R/I))| for every proper ideal."""
    expected = len(a.ideal) * a.verdict.quotient_vertex_count
    if a.verdict.gi_vertex_count != expected:
        return True, {
            "gi_vertex_count": a.verdict.gi_vertex_count,
            "ideal_size": len(a.ideal),
            "quotient_vertex_count": a.verdict.quotient_vertex_count,
        }
    return True, None


def check_nonradical_not_complemented(a: PairAnalysis):
    """Nonzero non-radical I with at least two quotient vertices forces
    Gamma_I(R) non-complemented."""
    applicable = (
        not a.verdict.ideal_is_radical
        and not a.ideal.is_zero
        and a.verdict.quotient_vertex_count >= 2
    )
    if not applicable:
        return False, None
    if a.verdict.gi_complemented:
        witness = int(np.flatnonzero(a.ideal.radical_mask & ~a.ideal.mask)[0])
        return True, {"gi_complemented": True, "radical_excess_element": witness}
    return True, None


def check_k1_inflation(a: PairAnalysis):
    """A one-vertex quotient graph inflates to the complete graph on |I| vertices."""
    if a.verdict.quotient_vertex_count != 1:
        return False, None
    complete, nverts = a.gi.is_complete()
    if not (complete and nverts == len(a.ideal)):
        return True, {"complete": complete, "gi_vertex_count": nverts, "ideal_size": len(a.ideal)}
    return True, None


def check_nonradical_k2(a: PairAnalysis):
    """For nonzero non-radical I, Gamma_I(R) is complemented exactly when it
    is K^2. Zero ideals sit outside the statement: the plain zero-divisor
    graph of a non-reduced ring can be complemented without being K^2."""
    applicable = not a.verdict.ideal_is_radical and not a.ideal.is_zero
    if not applicable:
        return False, None
    complete, nverts = a.gi.is_complete()
    is_k2 = complete and nverts == 2
    if a.verdict.gi_complemented != is_k2:
        return True, {"gi_complemented": a.verdict.gi_complemented, "complete": complete, "gi_vertex_count": nverts}
    return True, None


def check_complemented_transfer(a: PairAnalysis):
    """For nonzero non-prime I: Gamma_I(R) complemented with >= 2 quotient
    vertices holds exactly when Gamma(R/I) is complemented and I is radical."""
    applicable = not a.ideal.is_zero and not a.verdict.ideal_is_prime
    if not applicable:
        return False, None
    left = a.verdict.gi_complemented and a.verdict.quotient_vertex_count >= 2
    right = a.verdict.quotient_graph_complemented and a.verdict.ideal_is_radical
    if left != right:
        return True, {
            "gi_complemented": a.verdict.gi_complemented,
            "quotient_vertex_count": a.verdict.quotient_vertex_count,
            "quotient_graph_complemented": a.verdict.quotient_graph_complemented,
            "ideal_is_radical": a.verdict.ideal_is_radical,
        }
    return True, None


def classification_cases(v: PropertyVerdict) -> tuple[bool, bool] | None:
    """The two cases of the classification for a nonzero non-prime ideal:
    (1) |Z(R/I)| = 2 and |I| = 2; (2) Gamma(R/I) complemented and I
    radical. None for a zero or prime ideal, outside the statement."""
    if v.ideal_is_prime or len(v.ideal_members) == 1:
        return None
    case1 = v.quotient_z_count == 2 and len(v.ideal_members) == 2
    return case1, v.quotient_graph_complemented and v.ideal_is_radical


def check_classification_cases(a: PairAnalysis):
    """For nonzero non-prime I, Gamma_I(R) is complemented exactly when one
    of the two mutually exclusive ``classification_cases`` holds."""
    cases = classification_cases(a.verdict)
    if cases is None:
        return False, None
    case1, case2 = cases
    if case1 and case2:
        return True, {"case1": True, "case2": True, "reason": "cases not mutually exclusive"}
    if a.verdict.gi_complemented != (case1 or case2):
        return True, {"gi_complemented": a.verdict.gi_complemented, "case1": case1, "case2": case2}
    return True, None


def check_orthogonality_lifting(a: PairAnalysis):
    """For radical non-prime I: x and y are orthogonal in Gamma_I(R) exactly
    when their cosets are orthogonal in Gamma(R/I); orthogonal vertices
    never share a coset. Each vertex's coset is looked up among the
    vertices of Gamma(R/I), and one that is not there is reported."""
    applicable = a.verdict.ideal_is_radical and not a.verdict.ideal_is_prime
    if not applicable:
        return False, None
    gi, gq = a.gi, a.gq
    cosets = a.coset_map[np.asarray(gi.vertices, dtype=np.intp)]
    index = np.full(a.quotient.order, -1, dtype=np.intp)
    index[np.asarray(gq.vertices, dtype=np.intp)] = np.arange(gq.vertex_count)
    pos = index[cosets]
    missing = pos < 0
    if missing.any():
        return True, {"x": gi.vertices[int(missing.argmax())], "reason": "coset is not a vertex of Gamma(R/I)"}
    # Gamma(R/I) has no loop, so a pair inside one coset never lifts
    lifted = gq.orth[np.ix_(pos, pos)]
    bad = np.triu(gi.orth != lifted, 1)
    if not bad.any():
        return True, None
    i, j = divmod(int(bad.argmax()), len(cosets))
    x, y = gi.vertices[i], gi.vertices[j]
    if cosets[i] == cosets[j]:
        return True, {"x": x, "y": y, "reason": "orthogonal pair inside one coset"}
    return True, {
        "x": x, "y": y, "gi_orthogonal": bool(gi.orth[i, j]), "quotient_orthogonal": bool(lifted[i, j])
    }


def check_annihilator_agreement(a: PairAnalysis):
    """For radical I with Gamma(R/I) uniquely complemented: two complements
    y, z of the same vertex satisfy alpha*y in I iff alpha*z in I for every
    alpha outside I."""
    applicable = a.verdict.ideal_is_radical and a.verdict.quotient_graph_uniquely_complemented
    if not applicable:
        return False, None
    in_i, gi = a.ideal.mask, a.gi
    # row v: the alphas outside I with alpha * v in I
    ann = table_mask(a.ring.mul_table[np.asarray(gi.vertices, dtype=np.intp)], in_i) & ~in_i
    split = first_class_split(gi.orth, row_classes(packed_words(ann))[1])
    if split is None:
        return True, None
    i, k = split
    j = int(gi.orth[i].argmax())
    alpha = int(np.flatnonzero(ann[j] != ann[k])[0])
    return True, {"x": gi.vertices[i], "y": gi.vertices[j], "z": gi.vertices[k], "alpha": alpha}


def check_complemented_iff_uc(a: PairAnalysis):
    """Gamma_I(R) is complemented exactly when it is uniquely complemented,
    for every radical or nonzero ideal. Zero non-radical ideals sit outside
    the statement: the plain zero-divisor graph of a non-reduced ring can be
    complemented without being uniquely complemented."""
    applicable = a.verdict.ideal_is_radical or not a.ideal.is_zero
    if not applicable:
        return False, None
    if a.verdict.gi_complemented != a.verdict.gi_uniquely_complemented:
        return True, {
            "gi_complemented": a.verdict.gi_complemented,
            "gi_uniquely_complemented": a.verdict.gi_uniquely_complemented,
        }
    return True, None


def check_radical_equivalences(a: PairAnalysis):
    """For radical I the five flags agree: Gamma_I(R) complemented / uniquely
    complemented, Gamma(R/I) complemented / uniquely complemented, and R/I
    von Neumann regular."""
    if not a.verdict.ideal_is_radical:
        return False, None
    flags = {
        "gi_complemented": a.verdict.gi_complemented,
        "gi_uniquely_complemented": a.verdict.gi_uniquely_complemented,
        "quotient_graph_complemented": a.verdict.quotient_graph_complemented,
        "quotient_graph_uniquely_complemented": a.verdict.quotient_graph_uniquely_complemented,
        "quotient_vnr": a.verdict.quotient_vnr,
    }
    if len(set(flags.values())) != 1:
        return True, dict(flags)
    return True, None


CHECKS: tuple[tuple[str, object], ...] = (
    ("cardinality_identity", check_cardinality),
    ("nonradical_not_complemented", check_nonradical_not_complemented),
    ("k1_quotient_inflation", check_k1_inflation),
    ("nonradical_complemented_iff_k2", check_nonradical_k2),
    ("complemented_transfer", check_complemented_transfer),
    ("classification_cases", check_classification_cases),
    ("orthogonality_lifting", check_orthogonality_lifting),
    ("annihilator_agreement", check_annihilator_agreement),
    ("complemented_iff_uniquely_complemented", check_complemented_iff_uc),
    ("radical_equivalence_chain", check_radical_equivalences),
)

CHECK_NAMES: tuple[str, ...] = tuple(name for name, _ in CHECKS)


@dataclass
class CheckResult:
    """Aggregated outcome of one check over a catalogue."""

    check_name: str
    pairs_tested: int
    pairs_applicable: int
    failures: list[dict]


@dataclass
class VerificationReport:
    """Catalogue-wide results, deterministically ordered."""

    catalogue: dict
    checks: list[CheckResult]
    verdicts: list[PropertyVerdict]
    failures_total: int
    tool_version: str = TOOL_VERSION
    ordering_key: str = ORDERING_KEY

    def to_json(self) -> str:
        # one shallow vars() per record: json.dumps reads the nested lists
        # and dicts as they are, so asdict's recursive deep copy buys nothing
        obj = {
            **vars(self),
            "checks": [vars(c) for c in self.checks],
            "verdicts": [vars(v) for v in self.verdicts],
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def default_catalogue() -> list[CatalogueEntry]:
    """The stock catalogue: Z_n for 2 <= n <= 100, Z_m x Z_n for
    2 <= m, n <= 8, and every monic polynomial quotient over p in {2, 3, 5}
    of degree <= 3, so at most 5^3 = 125 elements -- each with all proper
    ideals."""
    entries = [CatalogueEntry(f"Zn:{n}") for n in range(2, 101)]
    entries += [CatalogueEntry(f"prod(Zn:{m},Zn:{n})") for m in range(2, 9) for n in range(2, 9)]
    for p in (2, 3, 5):
        for degree in (1, 2, 3):
            for low in itertools.product(range(p), repeat=degree):
                coeffs = ",".join(str(c) for c in (*low, 1))
                entries.append(CatalogueEntry(f"polyq:{p}:{coeffs}"))
    return entries


def parse_catalogue_text(text: str) -> list[CatalogueEntry]:
    """Parse a catalogue file: one ring spec per line, optionally followed
    by bracketed generator lists restricting the ideals, e.g.::

        # comment
        Zn:8 [4] [2,4]
        prod(Zn:2,Zn:3)

    Without brackets every proper ideal of the ring is analyzed; ``[]``
    denotes the zero ideal. The grammar is ``specs.parse_catalogue_line``;
    errors name the line and the offset within it.
    """
    entries: list[CatalogueEntry] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        try:
            node, filters = parse_catalogue_line(line)
        except SpecParseError as e:
            raise CatalogueError(f"line {lineno}: {e}") from e
        entries.append(CatalogueEntry(format_spec(node), filters))
    return entries


def evaluate_entry(
    entry: CatalogueEntry,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    ideal_cap: int = DEFAULT_IDEAL_ENUMERATION_CAP,
    inject_fault: bool = False,
) -> dict:
    """Analyze every requested proper ideal of one catalogue ring.

    Each pair is recorded as (verdict, outcomes), with the (applicable,
    failure) result of every check in ``CHECKS`` order. Cap overruns and
    bad filters skip the entry (recorded, not fatal).
    """
    try:
        ring = build_ring(entry.spec, max_order=max_order)
        if entry.ideal_filters is None:
            ideals = [i for i in all_ideals(ring, max_order=ideal_cap) if i.is_proper]
        else:
            ideals = []
            for gens in entry.ideal_filters:
                ideal = generate_ideal(ring, gens)
                if not ideal.is_proper:
                    raise ImproperIdealError(f"filter {list(gens)} generates the whole ring")
                ideals.append(ideal)
    except (CapExceededError, SpecParseError, InvalidElementError, ImproperIdealError) as e:
        return {"spec": entry.spec, "skipped": str(e), "pairs": []}
    pairs = []
    for ideal in ideals:
        analysis = analyze_pair(ring, ideal, _corrupt_graph=inject_fault)
        pairs.append((analysis.verdict, tuple(fn(analysis) for _, fn in CHECKS)))
    return {"spec": ring.spec, "skipped": None, "pairs": pairs}


def run_catalogue(
    entries,
    *,
    description: str = "default",
    max_order: int = DEFAULT_MAX_ORDER,
    ideal_cap: int = DEFAULT_IDEAL_ENUMERATION_CAP,
    jobs: int = 1,
    inject_fault: bool = False,
    progress=None,
) -> VerificationReport:
    """Evaluate every check on every (ring, proper ideal) pair of a catalogue.

    Entries may be CatalogueEntry objects or plain spec strings. Results are
    merged in (ring_spec, ideal_members) order, so the report is byte-stable
    for any parallelism degree. A ``jobs`` below 1 means every processor
    this process may run on.

    Each process that evaluates entries starts with an empty run memo:
    this one at ``jobs`` 1, else every pool worker, through the pool's
    initializer. The pool takes contiguous chunks of about a quarter of a
    worker's share of the entries, which saves a round trip per entry and
    gives each worker's memo related rings.
    """
    entries = [e if isinstance(e, CatalogueEntry) else CatalogueEntry(str(e)) for e in entries]
    if jobs is None or jobs < 1:
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    evaluate = functools.partial(
        evaluate_entry, max_order=max_order, ideal_cap=ideal_cap, inject_fault=inject_fault
    )
    results: list[dict] = []
    with contextlib.ExitStack() as stack:
        if jobs > 1 and len(entries) > 1:
            workers = min(jobs, len(entries))
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers, initializer=_set_run_memo, initargs=(True,))
            )
            mapped = pool.map(evaluate, entries, chunksize=max(1, len(entries) // (4 * workers)))
        else:
            _set_run_memo(True)
            stack.callback(_set_run_memo, False)
            mapped = map(evaluate, entries)
        for i, res in enumerate(mapped):
            results.append(res)
            if progress is not None:
                progress(f"[{i + 1}/{len(entries)}] {res['spec']}: {len(res['pairs'])} pairs")

    skipped = sorted(
        ({"spec": r["spec"], "reason": r["skipped"]} for r in results if r["skipped"]),
        key=lambda s: (s["spec"], s["reason"]),
    )
    rows = sorted(
        (p for r in results for p in r["pairs"]), key=lambda p: (p[0].ring_spec, p[0].ideal_members)
    )
    checks: list[CheckResult] = []
    for k, name in enumerate(CHECK_NAMES):
        applicable = 0
        failures: list[dict] = []
        for verdict, outcomes in rows:
            ok, failure = outcomes[k]
            applicable += bool(ok)
            if failure is not None:
                members = list(verdict.ideal_members)
                failures.append({"ring_spec": verdict.ring_spec, "ideal_members": members, "witness": failure})
        checks.append(CheckResult(name, len(rows), applicable, failures))

    failures_total = sum(len(c.failures) for c in checks)
    catalogue = {
        "description": description,
        "entries": len(entries),
        "pairs": len(rows),
        "skipped": skipped,
        "quotient_vnr_note": QUOTIENT_VNR_NOTE,
    }
    return VerificationReport(
        catalogue=catalogue,
        checks=checks,
        verdicts=[verdict for verdict, _ in rows],
        failures_total=failures_total,
    )
