"""No class-graph state outlives a call: a graph keeps its classes of
similar vertices as a cached property of its own, so the only process-global
state left is the run memo of ``run_catalogue`` (``verifier._run_memo``),
and neither the ``check`` command nor ``analyze_pair`` outside a run may
leave one behind.
"""

from zdglab import analyze_pair, build_ring, generate_ideal, run_catalogue, verifier
from zdglab.cli import main


def test_check_and_analyze_pair_outside_a_run_leave_the_memo_untouched(capsys):
    run_catalogue(["Zn:12", "Zn:8"], jobs=1)
    assert verifier._run_memo is None  # no memo outlives run_catalogue
    for spec, gens in (("Zn:12", [6]), ("Zn:8", [4]), ("Zn:30", [5])):
        ring = build_ring(spec)
        analyze_pair(ring, generate_ideal(ring, gens))
    assert main(["check", "Zn:12", "--ideal", "6"]) == 0
    capsys.readouterr()
    assert verifier._run_memo is None
