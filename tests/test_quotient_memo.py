"""The scope of the quotient-side entries of the run memo of
``run_catalogue`` (``rings.run_memo``): a new memo for each run, and none
outside a run.

How the memoised verdicts compare with the unmemoised oracle is tested in
``test_run_memo``.
"""

from zdglab import analyze_pair, build_ring, generate_ideal, rings, run_catalogue


def run_watching_quotients(entries):
    """(the memo at each entry's progress call, its quotient entries then)."""
    memos, sizes = [], []

    def progress(_line):
        memos.append(rings._run_memo)
        sizes.append(sum(key[0] == "quotient" for key in rings._run_memo))

    run_catalogue(entries, jobs=1, progress=progress)
    return memos, sizes


def test_each_run_starts_with_an_empty_memo():
    entries = ["Zn:12", "Zn:8", "prod(Zn:2,Zn:4)", "Zn:24"]
    memos1, sizes1 = run_watching_quotients(entries)
    assert rings._run_memo is None
    memos2, sizes2 = run_watching_quotients(entries)
    assert rings._run_memo is None
    assert sizes1 == sizes2 and sizes1[0] > 0
    assert memos1[0] is not memos2[0]


def test_analyze_pair_outside_run_catalogue_leaves_the_memo_untouched():
    run_catalogue(["Zn:12", "Zn:8"], jobs=1)
    assert rings._run_memo is None  # no memo outlives run_catalogue
    for spec, gens in (("Zn:12", [6]), ("Zn:8", [4]), ("Zn:30", [5])):
        ring = build_ring(spec)
        analyze_pair(ring, generate_ideal(ring, gens))
    assert rings._run_memo is None
