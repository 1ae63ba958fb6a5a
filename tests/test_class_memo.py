"""The scope of the class-graph entries of the run memo of ``run_catalogue``
(``rings.run_memo``): a new memo for each run, and none outside a run.

How the memoised class graphs compare with fresh ones is tested in
``test_run_memo``.
"""

from zdglab import analyze_pair, build_ring, generate_ideal, rings, run_catalogue
from zdglab.cli import main


def run_watching_classes(entries):
    """(the memo at each entry's progress call, its class entries then)."""
    memos, sizes = [], []

    def progress(_line):
        memos.append(rings._run_memo)
        sizes.append(sum(key[0] == "classes" for key in rings._run_memo))

    run_catalogue(entries, jobs=1, progress=progress)
    return memos, sizes


def test_each_run_starts_with_an_empty_class_memo():
    entries = ["Zn:12", "Zn:8", "prod(Zn:2,Zn:4)", "Zn:24"]
    memos1, sizes1 = run_watching_classes(entries)
    assert rings._run_memo is None
    memos2, sizes2 = run_watching_classes(entries)
    assert rings._run_memo is None
    assert sizes1 == sizes2 and sizes1[0] > 0
    assert all(m is memos1[0] for m in memos1) and memos1[0] is not memos2[0]


def test_check_and_analyze_pair_outside_a_run_leave_the_memo_untouched(capsys):
    run_catalogue(["Zn:12", "Zn:8"], jobs=1)
    assert rings._run_memo is None
    for spec, gens in (("Zn:12", [6]), ("Zn:8", [4]), ("Zn:30", [5])):
        ring = build_ring(spec)
        analyze_pair(ring, generate_ideal(ring, gens))
    assert main(["check", "Zn:12", "--ideal", "6"]) == 0
    capsys.readouterr()
    assert rings._run_memo is None
