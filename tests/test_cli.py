"""End-to-end CLI behaviour: artifacts on stdout, logs on stderr, exit codes."""

import json

import pytest

from zdglab import verifier
from zdglab.cli import main

K2_DOT = 'graph "Gamma_{4}(Zn:8)" {\n  "2";\n  "6";\n  "2" -- "6";\n}\n'


def test_ring_text(capsys):
    assert main(["ring", "Zn:6"]) == 0
    out, err = capsys.readouterr()
    assert "order: 6" in out
    assert "zero-divisors: 4" in out
    assert "reduced: yes" in out
    assert "von Neumann regular: yes" in out
    assert err == ""


def test_ring_json(capsys):
    assert main(["ring", "Zn:4", "--format", "json"]) == 0
    out, _ = capsys.readouterr()
    info = json.loads(out)
    assert info["order"] == 4
    assert info["zero_divisor_count"] == 2
    assert info["reduced"] is False
    assert info["von_neumann_regular"] is False


def test_ring_polyq_field(capsys):
    assert main(["ring", "polyq:2:1,1,1", "--format", "json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["order"] == 4
    assert info["zero_divisor_count"] == 1
    assert info["reduced"] is True and info["von_neumann_regular"] is True


def test_ring_parse_error_exit_code(capsys):
    assert main(["ring", "Zn:1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and "offset" in err


def test_ideals_listing(capsys):
    assert main(["ideals", "Zn:8", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ideal_count"] == 4
    gens = [tuple(row["generators"]) for row in obj["ideals"]]
    assert gens == [(0,), (4,), (2,), (1,)]
    radicals = [row["radical"] for row in obj["ideals"]]
    assert radicals == [False, False, True, True]
    primes = [row["prime"] for row in obj["ideals"]]
    assert primes == [False, False, True, False]


def test_ideals_text(capsys):
    assert main(["ideals", "Zn:12"]) == 0
    out, _ = capsys.readouterr()
    assert "6 ideals" in out


# (generators, members, radical, prime) per ideal, in the listing's order
IDEAL_GOLDENS = {
    # {0,1,4,5} is R*5, so it lists its least generator 5, not its greedy
    # generating sequence (1, 4)
    "prod(Zn:4,Zn:2)": [
        ((0,), (0,), False, False),
        ((1,), (0, 1), False, False),
        ((4,), (0, 4), True, False),
        ((5,), (0, 1, 4, 5), True, True),
        ((2,), (0, 2, 4, 6), True, True),
        ((3,), tuple(range(8)), True, False),
    ],
    "prod(Zn:2,prod(Zn:2,Zn:2))": [
        ((0,), (0,), True, False),
        ((1,), (0, 1), True, False),
        ((2,), (0, 2), True, False),
        ((4,), (0, 4), True, False),
        ((3,), (0, 1, 2, 3), True, True),
        ((5,), (0, 1, 4, 5), True, True),
        ((6,), (0, 2, 4, 6), True, True),
        ((7,), tuple(range(8)), True, False),
    ],
    "quot(Zn:24;12)": [
        ((0,), (0,), False, False),
        ((6,), (0, 6), True, False),
        ((4,), (0, 4, 8), False, False),
        ((3,), (0, 3, 6, 9), True, True),
        ((2,), (0, 2, 4, 6, 8, 10), True, True),
        ((1,), tuple(range(12)), True, False),
    ],
}

IDEAL_TEXT_GOLDENS = {
    "prod(Zn:4,Zn:2)": (
        "ring prod(Zn:4,Zn:2): 6 ideals\n"
        "size    1  gens (0)  radical no   prime no   members {0}\n"
        "size    2  gens (1)  radical no   prime no   members {0,1}\n"
        "size    2  gens (4)  radical yes  prime no   members {0,4}\n"
        "size    4  gens (5)  radical yes  prime yes  members {0,1,4,5}\n"
        "size    4  gens (2)  radical yes  prime yes  members {0,2,4,6}\n"
        "size    8  gens (3)  radical yes  prime no   members {0,1,2,3,4,5,6,7}\n"
    ),
    "prod(Zn:2,prod(Zn:2,Zn:2))": (
        "ring prod(Zn:2,prod(Zn:2,Zn:2)): 8 ideals\n"
        "size    1  gens (0)  radical yes  prime no   members {0}\n"
        "size    2  gens (1)  radical yes  prime no   members {0,1}\n"
        "size    2  gens (2)  radical yes  prime no   members {0,2}\n"
        "size    2  gens (4)  radical yes  prime no   members {0,4}\n"
        "size    4  gens (3)  radical yes  prime yes  members {0,1,2,3}\n"
        "size    4  gens (5)  radical yes  prime yes  members {0,1,4,5}\n"
        "size    4  gens (6)  radical yes  prime yes  members {0,2,4,6}\n"
        "size    8  gens (7)  radical yes  prime no   members {0,1,2,3,4,5,6,7}\n"
    ),
    "quot(Zn:24;12)": (
        "ring quot(Zn:24;12): 6 ideals\n"
        "size    1  gens (0)  radical no   prime no   members {0}\n"
        "size    2  gens (6)  radical yes  prime no   members {0,6}\n"
        "size    3  gens (4)  radical no   prime no   members {0,4,8}\n"
        "size    4  gens (3)  radical yes  prime yes  members {0,3,6,9}\n"
        "size    6  gens (2)  radical yes  prime yes  members {0,2,4,6,8,10}\n"
        "size   12  gens (1)  radical yes  prime no   members {0,1,2,3,4,5,6,7,8,9,10,11}\n"
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("spec", list(IDEAL_GOLDENS))
def test_ideals_output_is_pinned(spec, fmt, capsys):
    assert main(["ideals", spec, "--format", fmt]) == 0
    if fmt == "text":
        expected = IDEAL_TEXT_GOLDENS[spec]
    else:
        rows = [
            {"generators": list(g), "members": list(m), "prime": p, "radical": rad, "size": len(m)}
            for g, m, rad, p in IDEAL_GOLDENS[spec]
        ]
        obj = {"ideal_count": len(rows), "ideals": rows, "spec": spec}
        expected = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out == expected


def test_ideals_cap_error(capsys):
    assert main(["ideals", "Zn:300"]) == 2
    assert "error:" in capsys.readouterr().err


def test_graph_dot_stdout_is_pure(capsys):
    assert main(["graph", "Zn:8", "--ideal", "4"]) == 0
    out, err = capsys.readouterr()
    assert out == K2_DOT
    assert err == ""


def test_graph_json(capsys):
    assert main(["graph", "Zn:12", "--ideal", "6", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["vertices"] == ["2", "3", "4", "8", "9", "10"]
    assert len(obj["edges"]) == 8


# Exports whose labels are not plain integers: pair, polynomial and coset names.
PAIR_DOT = (
    'graph "Gamma_{2}(prod(Zn:4,Zn:6))" {\n'
    '  "(0,1)";\n'
    '  "(0,3)";\n'
    '  "(0,5)";\n'
    '  "(1,0)";\n'
    '  "(1,2)";\n'
    '  "(1,4)";\n'
    '  "(2,0)";\n'
    '  "(2,1)";\n'
    '  "(2,2)";\n'
    '  "(2,3)";\n'
    '  "(2,4)";\n'
    '  "(2,5)";\n'
    '  "(3,0)";\n'
    '  "(3,2)";\n'
    '  "(3,4)";\n'
    '  "(0,1)" -- "(1,0)";\n'
    '  "(0,1)" -- "(1,2)";\n'
    '  "(0,1)" -- "(1,4)";\n'
    '  "(0,1)" -- "(2,0)";\n'
    '  "(0,1)" -- "(2,2)";\n'
    '  "(0,1)" -- "(2,4)";\n'
    '  "(0,1)" -- "(3,0)";\n'
    '  "(0,1)" -- "(3,2)";\n'
    '  "(0,1)" -- "(3,4)";\n'
    '  "(0,3)" -- "(1,0)";\n'
    '  "(0,3)" -- "(1,2)";\n'
    '  "(0,3)" -- "(1,4)";\n'
    '  "(0,3)" -- "(2,0)";\n'
    '  "(0,3)" -- "(2,2)";\n'
    '  "(0,3)" -- "(2,4)";\n'
    '  "(0,3)" -- "(3,0)";\n'
    '  "(0,3)" -- "(3,2)";\n'
    '  "(0,3)" -- "(3,4)";\n'
    '  "(0,5)" -- "(1,0)";\n'
    '  "(0,5)" -- "(1,2)";\n'
    '  "(0,5)" -- "(1,4)";\n'
    '  "(0,5)" -- "(2,0)";\n'
    '  "(0,5)" -- "(2,2)";\n'
    '  "(0,5)" -- "(2,4)";\n'
    '  "(0,5)" -- "(3,0)";\n'
    '  "(0,5)" -- "(3,2)";\n'
    '  "(0,5)" -- "(3,4)";\n'
    '  "(2,0)" -- "(2,1)";\n'
    '  "(2,0)" -- "(2,2)";\n'
    '  "(2,0)" -- "(2,3)";\n'
    '  "(2,0)" -- "(2,4)";\n'
    '  "(2,0)" -- "(2,5)";\n'
    '  "(2,1)" -- "(2,2)";\n'
    '  "(2,1)" -- "(2,4)";\n'
    '  "(2,2)" -- "(2,3)";\n'
    '  "(2,2)" -- "(2,4)";\n'
    '  "(2,2)" -- "(2,5)";\n'
    '  "(2,3)" -- "(2,4)";\n'
    '  "(2,4)" -- "(2,5)";\n'
    "}\n"
)

POLY_JSON = (
    "{\n"
    '  "edges": [\n'
    "    [\n"
    "      0,\n"
    "      1\n"
    "    ],\n"
    "    [\n"
    "      1,\n"
    "      2\n"
    "    ]\n"
    "  ],\n"
    '  "vertices": [\n'
    '    "x",\n'
    '    "x^2",\n'
    '    "x^2+x"\n'
    "  ]\n"
    "}\n"
)

COSET_DOT = (
    'graph "Gamma_{4}(quot(Zn:24;12))" {\n'
    '  "2+I";\n'
    '  "6+I";\n'
    '  "10+I";\n'
    '  "2+I" -- "6+I";\n'
    '  "2+I" -- "10+I";\n'
    '  "6+I" -- "10+I";\n'
    "}\n"
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["graph", "prod(Zn:4,Zn:6)", "--ideal", "2"], PAIR_DOT),
        (["graph", "polyq:2:0,0,0,1", "--format", "json"], POLY_JSON),
        (["graph", "quot(Zn:24;12)", "--ideal", "4"], COSET_DOT),
    ],
)
def test_graph_export_labels_are_element_names(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_graph_prime_ideal_is_empty(capsys):
    assert main(["graph", "Zn:6", "--ideal", "3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"vertices": [], "edges": []}


def test_graph_out_file_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.dot", tmp_path / "b.dot"
    assert main(["graph", "Zn:8", "--ideal", "4", "--out", str(f1)]) == 0
    assert main(["graph", "Zn:8", "--ideal", "4", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes() == K2_DOT.encode()


def test_graph_improper_ideal(capsys):
    assert main(["graph", "Zn:6", "--ideal", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_graph_bad_ideal_names_offset(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["graph", "Zn:8", "--ideal", "4,x"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "expected an integer (at offset 2)" in err


def test_check_case_one(capsys):
    assert main(["check", "Zn:8", "--ideal", "4"]) == 0
    out, _ = capsys.readouterr()
    assert "complemented: yes" in out
    assert "uniquely complemented: yes" in out
    assert "graph complete: K^2" in out
    assert "classification case: 1" in out


def test_check_case_two(capsys):
    assert main(["check", "Zn:12", "--ideal", "6", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["classification_case"] == "2"
    assert obj["gi_complemented"] is True
    assert obj["ideal_generators"] == [6]


def test_check_k4_not_complemented(capsys):
    assert main(["check", "Zn:16", "--ideal", "4"]) == 0
    out, _ = capsys.readouterr()
    assert "complemented: no" in out
    assert "graph complete: K^4" in out
    assert "classification case: none" in out


def test_check_prime_ideal_case_na(capsys):
    assert main(["check", "Zn:12", "--ideal", "3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["classification_case"] == "n/a"
    assert obj["ideal_is_prime"] is True


def test_verify_single_pair_catalogue(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text("Zn:8 [4]\n")
    out_path = tmp_path / "report.json"
    code = main(["verify", "--catalogue", str(cat), "--jobs", "1", "--quiet", "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == ""
    assert "1 pairs, 0 failures" in err
    report = json.loads(out_path.read_text())
    assert report["failures_total"] == 0
    assert len(report["verdicts"]) == 1
    assert report["verdicts"][0]["ring_spec"] == "Zn:8"


def test_verify_fault_injection_exit_code(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text("Zn:8 [4]\n")
    out_path = tmp_path / "report.json"
    code = main(
        ["verify", "--catalogue", str(cat), "--jobs", "1", "--quiet", "--inject-fault", "--out", str(out_path)]
    )
    capsys.readouterr()
    assert code == 1
    report = json.loads(out_path.read_text())
    assert report["failures_total"] > 0


def test_verify_text_summary(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text("Zn:12\n")
    code = main(["verify", "--catalogue", str(cat), "--jobs", "1", "--quiet", "--format", "text"])
    out, err = capsys.readouterr()
    assert code == 0
    assert "failures total: 0" in out
    assert "cardinality_identity" in out


def test_verify_unreadable_catalogue(tmp_path, capsys):
    assert main(["verify", "--catalogue", str(tmp_path / "missing.txt"), "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err
    not_utf8 = tmp_path / "bad.cat"
    not_utf8.write_bytes(b"Zn:8\n\xff\xfe\n")
    assert main(["verify", "--catalogue", str(not_utf8), "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {not_utf8}: not UTF-8 at byte offset 5\n"


def test_verify_reads_a_catalogue_with_a_byte_order_mark(tmp_path, capsys):
    lines = b"Zn:8 [4] [2]\nprod(Zn:2,Zn:4)\n"
    reports = []
    for name, data in (("plain.cat", lines), ("bom.cat", b"\xef\xbb\xbf" + lines)):
        (tmp_path / name).write_bytes(data)
        assert main(["verify", "--catalogue", str(tmp_path / name), "--quiet"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    plain, bom = reports
    assert bom["catalogue"]["pairs"] == plain["catalogue"]["pairs"] == 2 + 5
    assert bom["verdicts"] == plain["verdicts"]
    bad = tmp_path / "bad.cat"
    bad.write_bytes(b"\xef\xbb\xbfZn:8\n\xff\n")
    assert main(["verify", "--catalogue", str(bad), "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {bad}: not UTF-8 at byte offset 8\n"


def test_verify_bad_catalogue_line(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text("Zn:8\nbogus:3\n")
    assert main(["verify", "--catalogue", str(cat), "--quiet"]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["Zn:" + "9" * 5000, "polyq:1000000000000000003:0,1"])
def test_oversized_integer_is_an_input_error(spec, tmp_path, capsys):
    assert main(["ring", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err and "9 digits" in err
    cat = tmp_path / "cat.txt"
    cat.write_text(f"Zn:8\n{spec}\n")
    assert main(["verify", "--catalogue", str(cat), "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err and "line 2" in err


def test_verify_internal_error_exits_3_and_writes_no_report(tmp_path, capsys, monkeypatch):
    def broken(analysis):
        raise IndexError("broken check")

    (name, _), *rest = verifier.CHECKS
    monkeypatch.setattr(verifier, "CHECKS", ((name, broken), *rest))
    cat = tmp_path / "cat.txt"
    cat.write_text("Zn:8 [4]\n")
    out_path = tmp_path / "report.json"
    code = main(["verify", "--catalogue", str(cat), "--jobs", "1", "--quiet", "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and "IndexError: broken check" in err
    assert not out_path.exists()


def test_verify_progress_goes_to_stderr(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text("Zn:8\nZn:12\n")
    code = main(["verify", "--catalogue", str(cat), "--jobs", "1", "--out", str(tmp_path / "r.json")])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == ""
    assert "[1/2] Zn:8" in err and "[2/2] Zn:12" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "zdglab" in capsys.readouterr().out
