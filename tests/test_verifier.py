"""Per-check unit cases, catalogue driving, report shape and determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from zdglab import (
    CatalogueEntry,
    CatalogueError,
    CHECK_NAMES,
    SimpleGraph,
    all_ideals,
    analyze_pair,
    build_ring,
    build_zn,
    default_catalogue,
    direct_product,
    generate_ideal,
    parse_catalogue_text,
    run_catalogue,
)
import zdglab
from zdglab import verifier
from zdglab.verifier import (
    CHECKS,
    _drop_top_vertex,
    check_annihilator_agreement,
    check_cardinality,
    check_classification_cases,
    check_complemented_iff_uc,
    check_complemented_transfer,
    check_k1_inflation,
    check_nonradical_k2,
    check_nonradical_not_complemented,
    check_orthogonality_lifting,
    check_radical_equivalences,
    classification_cases,
)

from oracles import check_result, edge_keys, square_zero_ring


def pair(spec, gens):
    ring = build_ring(spec)
    return analyze_pair(ring, generate_ideal(ring, gens))


def passes(check, analysis):
    applicable, failure = check(analysis)
    return applicable and failure is None


def not_applicable(check, analysis):
    applicable, failure = check(analysis)
    return not applicable and failure is None


def test_verdict_fixture_z8_by_4():
    v = pair("Zn:8", [4]).verdict
    assert v.ring_spec == "Zn:8"
    assert v.ideal_members == (0, 4)
    assert not v.ideal_is_radical and not v.ideal_is_prime
    assert v.quotient_vertex_count == 1 and v.gi_vertex_count == 2
    assert v.gi_complemented and v.gi_uniquely_complemented
    assert not v.quotient_graph_complemented and not v.quotient_graph_uniquely_complemented
    assert not v.quotient_vnr and v.quotient_z_count == 2


def test_verdict_fixture_z12_by_6():
    v = pair("Zn:12", [6]).verdict
    assert v.ideal_is_radical and not v.ideal_is_prime
    assert v.quotient_vertex_count == 3 and v.gi_vertex_count == 6
    assert v.gi_complemented and v.gi_uniquely_complemented
    assert v.quotient_graph_complemented and v.quotient_graph_uniquely_complemented
    assert v.quotient_vnr and v.quotient_z_count == 4


def test_verdict_invariant_vertex_counts():
    for spec, gens in (("Zn:8", [4]), ("Zn:12", [6]), ("Zn:16", [4]), ("Zn:24", [8])):
        v = pair(spec, gens).verdict
        assert v.gi_vertex_count == len(v.ideal_members) * v.quotient_vertex_count


def test_check_cardinality():
    assert passes(check_cardinality, pair("Zn:12", [6]))
    assert passes(check_cardinality, pair("Zn:8", [4]))
    assert passes(check_cardinality, pair("Zn:6", [3]))  # prime: 0 = |I| * 0


def test_gamma_of_the_ring_is_shared_at_the_zero_ideal_only_when_both_vertex_scans_agree():
    ring = build_ring("Zn:12")
    shared = analyze_pair(ring, generate_ideal(ring, []))
    assert shared.gq is shared.gi and shared.gi.vertices == (2, 3, 4, 6, 8, 9, 10)
    # a vertex scan that lost 10 disagrees with the zero-divisor scan, so
    # Gamma(R/0) is built on its own and the identity sees the difference
    ideal = generate_ideal(ring, [])
    wrong = ideal.vertex_mask.copy()
    wrong[10] = False
    vars(ideal)["vertex_mask"] = wrong
    a = analyze_pair(ring, ideal)
    assert a.gq is not a.gi
    assert a.gi.vertices == (2, 3, 4, 6, 8, 9) and a.gq.vertices == shared.gq.vertices
    assert np.array_equal(a.gq.adj, shared.gq.adj)
    assert check_cardinality(a) == (True, {"gi_vertex_count": 6, "ideal_size": 1, "quotient_vertex_count": 7})
    assert passes(check_cardinality, shared)


def test_check_nonradical_not_complemented():
    assert passes(check_nonradical_not_complemented, pair("Zn:24", [8]))
    assert passes(check_nonradical_not_complemented, pair("Zn:36", [12]))
    a = pair("Zn:8", [4])  # one quotient vertex: hypothesis fails
    assert not_applicable(check_nonradical_not_complemented, a)
    a = pair("Zn:8", [])  # zero ideal: hypothesis fails
    assert not_applicable(check_nonradical_not_complemented, a)


def test_nonradical_not_complemented_witness():
    # I = (8) in Z_16 has radical (2); a forged complemented verdict is
    # refuted by the least element of the radical outside I
    a = pair("Zn:16", [8])
    a.verdict = dataclasses.replace(a.verdict, gi_complemented=True)
    assert check_nonradical_not_complemented(a) == (
        True, {"gi_complemented": True, "radical_excess_element": 2}
    )


def forged(spec, gens, **fields):
    """The pair with the given verdict fields replaced."""
    a = pair(spec, gens)
    a.verdict = dataclasses.replace(a.verdict, **fields)
    return a


def test_nonradical_complemented_iff_k2_witness():
    # Gamma_{4}(Z_16) is K^4: a forged complemented verdict is not K^2
    assert check_nonradical_k2(forged("Zn:16", [4], gi_complemented=True)) == (
        True, {"gi_complemented": True, "complete": True, "gi_vertex_count": 4}
    )


def test_complemented_transfer_witness():
    # Gamma_{6}(Z_12) is complemented over 3 quotient vertices, yet the
    # forged Gamma(R/I) is not
    assert check_complemented_transfer(forged("Zn:12", [6], quotient_graph_complemented=False)) == (
        True,
        {
            "gi_complemented": True,
            "quotient_vertex_count": 3,
            "quotient_graph_complemented": False,
            "ideal_is_radical": True,
        },
    )


def test_classification_cases_not_mutually_exclusive_witness():
    # (4) in Z_8 is case 1; forged radical with Gamma(R/I) complemented, it
    # is case 2 as well
    a = forged("Zn:8", [4], ideal_is_radical=True, quotient_graph_complemented=True)
    assert check_classification_cases(a) == (
        True, {"case1": True, "case2": True, "reason": "cases not mutually exclusive"}
    )


def test_complemented_iff_uniquely_complemented_witness():
    a = forged("Zn:12", [6], gi_uniquely_complemented=False)
    assert check_complemented_iff_uc(a) == (True, {"gi_complemented": True, "gi_uniquely_complemented": False})


def test_check_k1_inflation():
    assert passes(check_k1_inflation, pair("Zn:16", [4]))
    assert passes(check_k1_inflation, pair("Zn:8", [4]))
    assert passes(check_k1_inflation, pair("Zn:4", []))  # K^1 with |I| = 1
    assert not_applicable(check_k1_inflation, pair("Zn:12", [6]))


def test_check_nonradical_k2():
    assert passes(check_nonradical_k2, pair("Zn:8", [4]))  # complemented and K^2
    assert passes(check_nonradical_k2, pair("Zn:16", [4]))  # neither (K^4)
    assert passes(check_nonradical_k2, pair("Zn:36", [12]))  # neither
    # zero non-radical ideals sit outside the statement: Gamma(Z_8) is a
    # complemented path on three vertices, not K^2
    a = pair("Zn:8", [])
    assert not_applicable(check_nonradical_k2, a)
    assert a.verdict.gi_complemented
    assert a.gi.is_complete() == (False, 3)


def test_check_complemented_transfer():
    assert passes(check_complemented_transfer, pair("Zn:12", [6]))  # both sides true
    assert passes(check_complemented_transfer, pair("Zn:8", [4]))  # both sides false
    assert passes(check_complemented_transfer, pair("Zn:24", [8]))  # both sides false
    assert not_applicable(check_complemented_transfer, pair("Zn:12", []))
    assert not_applicable(check_complemented_transfer, pair("Zn:12", [3]))  # prime


def test_check_classification_cases():
    a = pair("Zn:8", [4])
    assert passes(check_classification_cases, a)
    assert a.verdict.quotient_z_count == 2 and len(a.verdict.ideal_members) == 2  # case 1
    a = pair("Zn:12", [6])
    assert passes(check_classification_cases, a)
    assert a.verdict.quotient_graph_complemented and a.verdict.ideal_is_radical  # case 2
    a = pair("Zn:16", [4])
    assert passes(check_classification_cases, a)
    assert not a.verdict.gi_complemented  # |I| = 4: neither case


def test_check_orthogonality_lifting():
    assert passes(check_orthogonality_lifting, pair("Zn:12", [6]))
    assert passes(check_orthogonality_lifting, pair("Zn:6", []))  # zero radical ideal
    assert not_applicable(check_orthogonality_lifting, pair("Zn:8", [4]))  # non-radical
    assert not_applicable(check_orthogonality_lifting, pair("Zn:12", [3]))  # prime


def test_check_annihilator_agreement():
    a = pair("Zn:12", [6])
    assert passes(check_annihilator_agreement, a)
    # the complements 2 and 8 of vertex 3 kill the same alphas mod I
    ideal = {0, 6}
    ann2 = {x for x in range(12) if x not in ideal and (2 * x) % 12 in ideal}
    ann8 = {x for x in range(12) if x not in ideal and (8 * x) % 12 in ideal}
    assert ann2 == ann8 == {3, 9}
    assert not_applicable(check_annihilator_agreement, pair("Zn:8", [4]))


def with_gi_edges(analysis, edges):
    """The same pair with Gamma_I(R) replaced by the graph on the same
    vertices whose edges are the key pairs ``edges``."""
    g = analysis.gi
    adj = np.zeros_like(g.adj)
    for a, b in edges:
        i, j = g.vertices.index(a), g.vertices.index(b)
        adj[i, j] = adj[j, i] = True
    analysis.gi = SimpleGraph(g.vertices, adj)
    return analysis


def without_vertex(graph, v):
    """``graph`` rebuilt without the vertex key ``v``."""
    keep = [i for i, key in enumerate(graph.vertices) if key != v]
    return SimpleGraph([graph.vertices[i] for i in keep], graph.adj[np.ix_(keep, keep)])


def with_edge_toggled(analysis, a, b):
    """The same pair with the edge {a, b} of Gamma_I(R) added or removed."""
    return with_gi_edges(analysis, set(edge_keys(analysis.gi)) ^ {(a, b)})


def test_orthogonality_lifting_witnesses():
    # Gamma(Z_30) with one edge removed: 2 and 15 stop being orthogonal
    a = with_edge_toggled(pair("Zn:30", []), 2, 15)
    assert check_orthogonality_lifting(a) == (
        True, {"x": 2, "y": 15, "gi_orthogonal": False, "quotient_orthogonal": True}
    )
    # one edge added: 2 -- 3 is orthogonal in Gamma_I(R) but not in the quotient
    a = with_edge_toggled(pair("Zn:30", []), 2, 3)
    assert check_orthogonality_lifting(a) == (
        True, {"x": 2, "y": 3, "gi_orthogonal": True, "quotient_orthogonal": False}
    )
    # one edge added inside Gamma_{6}(Z_12): 2 loses its orthogonal partner 3
    a = with_edge_toggled(pair("Zn:12", [6]), 2, 4)
    assert check_orthogonality_lifting(a) == (
        True, {"x": 2, "y": 3, "gi_orthogonal": False, "quotient_orthogonal": True}
    )
    # 2 and 8 share the coset 2+I; joining only them to each other and 2 to 3
    a = with_gi_edges(pair("Zn:12", [6]), [(2, 3), (2, 8)])
    assert check_orthogonality_lifting(a) == (
        True, {"x": 2, "y": 8, "reason": "orthogonal pair inside one coset"}
    )
    # Gamma(Z_30) as Gamma(R/I) without vertex 2: the coset of vertex 2 has
    # no row there, and the row of 3 is not read in its place
    a = pair("Zn:30", [])
    a.gq = without_vertex(a.gq, 2)
    assert check_orthogonality_lifting(a) == (
        True, {"x": 2, "reason": "coset is not a vertex of Gamma(R/I)"}
    )
    # the top vertex dropped: its coset lies past every row of Gamma(R/I)
    a = pair("Zn:1155", [])
    a.gq = _drop_top_vertex(a.gq)
    assert check_orthogonality_lifting(a) == (
        True, {"x": 1152, "reason": "coset is not a vertex of Gamma(R/I)"}
    )


def test_annihilator_agreement_witnesses():
    # Gamma(Z_30) without the edge 10 -- 15: 10 joins 5 and 25 as a complement
    # of 6, and 3 kills 10 but not 5
    a = with_edge_toggled(pair("Zn:30", []), 10, 15)
    assert check_annihilator_agreement(a) == (True, {"x": 6, "y": 5, "z": 10, "alpha": 3})
    # one edge added: 3 becomes a complement of 2 next to 15
    a = with_edge_toggled(pair("Zn:30", []), 2, 3)
    assert check_annihilator_agreement(a) == (True, {"x": 2, "y": 3, "z": 15, "alpha": 2})


def test_check_complemented_iff_uc():
    assert passes(check_complemented_iff_uc, pair("Zn:8", [4]))
    assert passes(check_complemented_iff_uc, pair("Zn:16", [4]))
    assert passes(check_complemented_iff_uc, pair("Zn:12", [3]))  # prime, empty graph
    # zero non-radical ideals sit outside the statement: Gamma(Z_4 x Z_2)
    # is complemented but not uniquely complemented
    ring = direct_product(build_zn(4), build_zn(2))
    a = analyze_pair(ring, generate_ideal(ring, []))
    assert not_applicable(check_complemented_iff_uc, a)
    assert a.verdict.gi_complemented and not a.verdict.gi_uniquely_complemented


def test_check_radical_equivalences():
    a = pair("Zn:12", [6])
    assert passes(check_radical_equivalences, a)
    assert a.verdict.quotient_vnr
    assert passes(check_radical_equivalences, pair("Zn:12", [3]))  # prime: all vacuous-true
    assert passes(check_radical_equivalences, pair("Zn:6", []))
    assert not_applicable(check_radical_equivalences, pair("Zn:8", [4]))


def test_verify_never_imports_numpy_ma(tmp_path):
    # numpy's first np.unique call imports numpy.ma; a fresh verify on
    # nonzero ideals builds its quotients without it
    catalogue = tmp_path / "small.cat"
    catalogue.write_text("Zn:12\nprod(Zn:2,Zn:4)\nquot(Zn:24;12) [2]\n", encoding="utf-8")
    script = (
        "import sys\n"
        "from zdglab.cli import main\n"
        "code = main(['verify', '--catalogue', sys.argv[1], '--jobs', '1', '--quiet', '--out', sys.argv[2]])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(zdglab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, str(catalogue), str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.split() == ["0", "False"]
    pairs = json.loads((tmp_path / "report.json").read_text())["verdicts"]
    assert sum(len(p["ideal_members"]) > 1 for p in pairs) >= 5


def test_run_catalogue_single_pair():
    report = run_catalogue([CatalogueEntry("Zn:8", ((4,),))], description="one-pair")
    assert report.failures_total == 0
    assert len(report.verdicts) == 1
    assert report.verdicts[0].ring_spec == "Zn:8"
    assert report.catalogue["pairs"] == 1
    for c in report.checks:
        assert c.pairs_tested == 1
        assert c.pairs_applicable <= c.pairs_tested


def test_run_catalogue_check_names_and_scoping():
    report = run_catalogue(["Zn:8"], description="zn8")
    assert tuple(c.check_name for c in report.checks) == CHECK_NAMES
    assert report.failures_total == 0
    # proper ideals of Z_8: (0), (4), (2); the zero ideal is non-radical,
    # so the complemented-iff-uc statement applies to only two of them
    assert report.catalogue["pairs"] == 3
    assert check_result(report, "complemented_iff_uniquely_complemented").pairs_applicable == 2
    assert check_result(report, "cardinality_identity").pairs_applicable == 3


def test_report_is_byte_deterministic():
    entries = ["Zn:12", "Zn:8", "prod(Zn:2,Zn:3)"]
    a = run_catalogue(entries, description="d").to_json()
    b = run_catalogue(entries, description="d").to_json()
    assert a == b
    obj = json.loads(a)
    assert set(obj) == {"catalogue", "checks", "verdicts", "failures_total", "tool_version", "ordering_key"}


def test_parallel_matches_serial():
    entries = ["Zn:12", "Zn:8", "Zn:30", "prod(Zn:4,Zn:2)"]
    serial = run_catalogue(entries, description="d", jobs=1).to_json()
    parallel = run_catalogue(entries, description="d", jobs=2).to_json()
    assert serial == parallel


@pytest.mark.parametrize(
    "entries",
    [
        # chunks of one entry; at three workers one entry per worker
        ["Zn:12", "prod(Zn:2,Zn:4)", "polyq:2:0,0,1"],
        # chunks of 5 entries at two workers and of 3 at three (jobs 3 starts
        # three workers only where three processors are usable)
        default_catalogue()[::9],
    ],
    ids=["three-entries", "forty-default-entries"],
)
def test_report_is_identical_at_jobs_1_2_and_3(entries):
    assert len(entries) in (3, 40)
    serial = run_catalogue(entries, description="d", jobs=1).to_json()
    for jobs in (2, 3):
        assert run_catalogue(entries, description="d", jobs=jobs).to_json() == serial, jobs


def test_analyze_pair_builds_no_names_or_labels():
    ring = build_ring("prod(Zn:4,polyq:2:0,0,1)")
    a = analyze_pair(ring, generate_ideal(ring, [2]))
    assert not a.ideal.is_zero and a.gi.vertex_count and a.gq.vertex_count
    assert "element_names" not in vars(ring) and "element_names" not in vars(a.quotient)


def test_classification_cases_do_not_apply_to_zero_or_prime_ideals():
    for spec, gens in (("Zn:12", []), ("Zn:12", [3]), ("Zn:8", [2])):
        a = pair(spec, gens)
        assert classification_cases(a.verdict) is None, (spec, gens)
        assert not_applicable(check_classification_cases, a), (spec, gens)
    assert classification_cases(pair("Zn:8", [4]).verdict) == (True, False)
    assert classification_cases(pair("Zn:12", [6]).verdict) == (False, True)


def _evaluated_in_process_at_jobs_zero() -> bool:
    """Whether a two-entry run at ``jobs=0`` evaluated its entries in this
    process: only then does it hold a run memo when progress is reported."""
    seen = []
    run_catalogue(["Zn:8", "Zn:12"], jobs=0, progress=lambda msg: seen.append(verifier._run_memo is not None))
    return seen == [True, True]


def test_jobs_zero_counts_only_the_processors_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _evaluated_in_process_at_jobs_zero()
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _evaluated_in_process_at_jobs_zero()


def started_pools(monkeypatch, entries, jobs):
    """The ``max_workers`` of each pool a run at ``jobs`` starts, with a
    stand-in pool that maps in this process and starts none."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(verifier, "_run_memo", None)  # the initializer fills it
    run_catalogue(entries, jobs=jobs)
    return started


def test_the_pool_starts_no_more_workers_than_usable_processors(monkeypatch):
    entries = ["Zn:8", "Zn:12", "Zn:30", "prod(Zn:2,Zn:4)"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert started_pools(monkeypatch, entries, 300) == [2]
    assert started_pools(monkeypatch, entries, 0) == [2]
    assert started_pools(monkeypatch, entries, 1) == []
    # any jobs above 1 keeps the pool, even with one usable processor
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert started_pools(monkeypatch, entries, 2) == [1]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert started_pools(monkeypatch, entries, 300) == [4]  # one worker per entry
    assert started_pools(monkeypatch, entries[:1], 300) == []


def test_verdicts_sorted_by_ring_spec_then_members():
    report = run_catalogue(["Zn:12", "Zn:8"], description="d")
    keys = [(v.ring_spec, v.ideal_members) for v in report.verdicts]
    assert keys == sorted(keys)


def test_fault_injection_produces_counterexamples():
    report = run_catalogue(["Zn:8"], description="d", inject_fault=True)
    assert report.failures_total > 0
    card = check_result(report, "cardinality_identity")
    assert card.failures
    failure = card.failures[0]
    assert failure["ring_spec"] == "Zn:8"
    assert "ideal_members" in failure and "witness" in failure
    assert failure["witness"]["gi_vertex_count"] != (
        failure["witness"]["ideal_size"] * failure["witness"]["quotient_vertex_count"]
    )


def test_cap_overruns_are_recorded_not_fatal():
    report = run_catalogue(["Zn:300", "Zn:8"], description="d", ideal_cap=256)
    assert len(report.catalogue["skipped"]) == 1
    assert report.catalogue["skipped"][0]["spec"] == "Zn:300"
    assert report.catalogue["pairs"] == 3
    assert report.failures_total == 0


def test_quotient_by_zero_has_one_spelling_evaluated_or_skipped():
    entries = parse_catalogue_text("quot(Zn:6;0)\nquot(quot(Zn:24;12);0,0)\n")
    report = run_catalogue(entries, description="d", max_order=8)
    assert {v.ring_spec for v in report.verdicts} == {"Zn:6"}
    assert [s["spec"] for s in report.catalogue["skipped"]] == ["quot(Zn:24;12)"]


def test_improper_filter_skips_entry():
    report = run_catalogue([CatalogueEntry("Zn:8", ((1,),))], description="d")
    assert len(report.catalogue["skipped"]) == 1
    assert report.catalogue["pairs"] == 0


def test_parse_catalogue_text():
    text = """
    # demo catalogue
    Zn:8 [4] [2,4]
    Zn:12
    prod(Zn:2, Zn:3)  # trailing comment
    Zn:9 []
    """
    entries = parse_catalogue_text(text)
    assert entries == [
        CatalogueEntry("Zn:8", ((4,), (2, 4))),
        CatalogueEntry("Zn:12", None),
        CatalogueEntry("prod(Zn:2,Zn:3)", None),
        CatalogueEntry("Zn:9", ((),)),
    ]


def test_parse_catalogue_text_errors():
    with pytest.raises(CatalogueError, match="line 1"):
        parse_catalogue_text("Zn:1")
    with pytest.raises(CatalogueError, match=re.escape("line 1: expected ']' (at offset 7)")):
        parse_catalogue_text("Zn:8 [4")
    with pytest.raises(CatalogueError, match=re.escape("line 1: expected an integer (at offset 6)")):
        parse_catalogue_text("Zn:8 [x]")


def test_default_catalogue_shape():
    entries = default_catalogue()
    specs = [e.spec for e in entries]
    assert len(specs) == len(set(specs)) == 356
    assert "Zn:2" in specs and "Zn:100" in specs
    assert "prod(Zn:8,Zn:8)" in specs and "prod(Zn:2,Zn:8)" in specs
    assert "polyq:2:0,0,0,1" in specs and "polyq:5:4,4,4,1" in specs
    assert all(e.ideal_filters is None for e in entries)


def test_quotient_vnr_note_present():
    report = run_catalogue(["Zn:8"], description="d")
    assert "von" in report.catalogue["quotient_vnr_note"]


def test_checks_on_non_principal_ideals():
    # every spec-built ring is a principal ideal ring; these are not
    sq = square_zero_ring
    rings = [sq(2), sq(3), sq(4)]
    rings += [direct_product(sq(2), build_zn(2)), direct_product(sq(2), build_zn(3))]
    rings += [direct_product(sq(3), build_zn(2))]
    applicable = dict.fromkeys(CHECK_NAMES, 0)
    failures, corrupt_failures, non_principal = [], 0, 0
    for ring in rings:
        for ideal in all_ideals(ring):
            if not ideal.is_proper:
                continue
            non_principal += len(ideal.generators) > 1
            a = analyze_pair(ring, ideal)
            corrupt = analyze_pair(ring, ideal, _corrupt_graph=True)
            for name, fn in CHECKS:
                ok, failure = fn(a)
                applicable[name] += ok
                if failure is not None:
                    failures.append((ring.spec, ideal.sorted_members(), name, failure))
                corrupt_failures += fn(corrupt)[1] is not None
    assert non_principal > 0
    assert failures == []
    assert all(n > 0 for n in applicable.values()), applicable
    assert corrupt_failures > 0
