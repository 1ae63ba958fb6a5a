"""The quotient-side memo of ``run_catalogue`` (``verifier._run_memo``)
lives only inside a run: ``analyze_pair`` called outside one neither makes
nor fills it.

Its scope within a run, and how its verdicts compare with the unmemoised
oracle, are tested in ``test_run_memo``.
"""

from zdglab import analyze_pair, build_ring, generate_ideal, run_catalogue, verifier


def test_analyze_pair_outside_run_catalogue_leaves_the_memo_untouched():
    run_catalogue(["Zn:12", "Zn:8"], jobs=1)
    assert verifier._run_memo is None  # no memo outlives run_catalogue
    for spec, gens in (("Zn:12", [6]), ("Zn:8", [4]), ("Zn:30", [5])):
        ring = build_ring(spec)
        analyze_pair(ring, generate_ideal(ring, gens))
    assert verifier._run_memo is None
