import contextlib
import io
import json
import os
import sys
import time
import unittest.mock

import legacy_polytope
import pytest
from hypothesis import given, settings, strategies as st

from sutor import engine as E
from sutor import polytope as P
from sutor.cli import format_element, main
from sutor.abelian import AbElement, AbelianGroup
from sutor.fox import fox_matrix
from sutor.groupring import _cofactor, element, from_records, normalize, to_records
from sutor.words import WORK_BUDGET

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_format_element():
    Z2 = AbelianGroup(2)
    p = element(Z2, {
        AbElement((0, 0), ()): 1,
        AbElement((1, -1), ()): -2,
        AbElement((0, 1), ()): 1,
    })
    assert format_element(p, ["a", "b"]) == "1 + b - 2 a b^-1"
    assert format_element(element(Z2, {}), ["a", "b"]) == "0"


def test_compute_solid_torus(capsys):
    code, out, err = run(capsys, "compute", fx("solid_torus_3.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "input: solid_torus_3"
    assert lines[1] == "H1(M): Z"
    assert lines[2] == "tau ~ 1 + t + t^2"


def test_compute_json_report(capsys):
    code, out, err = run(capsys, "compute", "--json", fx("cc.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["H"] == {"rank": 3, "torsion": []}
    assert len(rep["tau"]["terms"]) == 4
    assert rep["checks"] == {"evaluation": True, "augmentation_order": True}


@pytest.mark.parametrize("name", [None, "", 'say "hi"', "back\\slash \\\\n",
                                  "\u00e9 \u2603 \U0001d53d", "tab\tnew\nline\x00 \x7f"])
def test_report_json_matches_the_indenting_encoder(name):
    """The hand-written report is the text json.dumps(report, indent=2,
    sort_keys=True) writes: names with quotes, backslashes, non-ASCII and
    control characters, H free or with torsion, tau with no terms."""
    from sutor.cli import _report_json

    for names, relators, rminus in [("abc", [], ["a b^-1", "c a", "b c"]),      # Z^3
                                    ("abc", ["a^4", "b^6 a^2"], ["c a b"]),     # Z + Z/2 + Z/12
                                    ("ab", ["a^3"], ["b^2 a"]),                 # Z + Z/3
                                    ("ab", [], ["1", "b"])]:                    # tau = 0
        inp = E.input_from_dict({"generators": list(names), "relators": relators,
                                 "rminus": rminus, "name": name})
        result = E.torsion(inp)
        report = {"name": name, "H": {"rank": result.H.rank, "torsion": list(result.H.torsion)},
                  "tau": to_records(result.tau),
                  "checks": {"evaluation": E.evaluation_check(inp, result).passed,
                             "augmentation_order": E.augmentation_order_check(inp, result).passed}}
        assert _report_json(result) == json.dumps(report, indent=2, sort_keys=True)


def test_compute_nonsquare_exits_2(capsys):
    code, out, err = run(capsys, "compute", fx("nonsquare.json"))
    assert code == 2
    assert "SQUARENESS" in err


def test_compute_missing_file_exits_1(capsys):
    code, out, err = run(capsys, "compute", fx("no_such_file.json"))
    assert code == 1
    assert "error" in err


def test_compute_stdin(tmp_path, capsys, monkeypatch):
    import io
    import sys
    payload = json.dumps({"generators": ["a"], "relators": [], "rminus": ["a^3"]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, err = run(capsys, "compute", "-")
    assert code == 0
    assert "tau ~ 1 + t + t^2" in out


@pytest.mark.parametrize("payload", [
    "[1, 2]",
    json.dumps({"generators": ["a"], "rminus": [3]}),
    json.dumps({"generators": ["a"], "rminus": ["(" * 3000 + "a" + ")" * 3000]}),
    json.dumps({"generators": "ab", "rminus": ["a", "b"]}),
    json.dumps({"relators": [], "rminus": ["a"]}),
    json.dumps({"generators": ["a"], "rminus": ["a"], "claimed_irreducible": "false"}),
    json.dumps({"generators": ["a"], "rminus": ["a"], "claimed_irreducible": 0}),
    json.dumps({"generators": ["a"], "rminus": ["a"], "name": ["x"]}),
    json.dumps({"generators": ["a"], "rminus": ["a"], "notes": {"x": 1}}),
    "[" * 100000 + "]" * 100000,
], ids=["top-level-list", "non-string-word", "deep-nesting", "string-generators",
        "missing-generators", "string-irreducible", "int-irreducible", "list-name",
        "object-notes", "deep-json"])
def test_compute_stdin_malformed_exits_1(payload, capsys, monkeypatch):
    import io
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, err = run(capsys, "compute", "-")
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, payload, exit_code", [
    (["polytope", fx("solid_torus_3.json"), "--alpha", "1,2"], None, 1),
    (["polytope", fx("solid_torus_3.json"), "--alpha", "x"], None, 1),
    (["polytope", "{file}"], {"generators": ["a", "b"], "rminus": ["a", "a"]}, 3),
    (["batch", "{file}"], {"foo": 1}, 1),
    (["batch", "{file}"], [1], 1),
    (["batch", "{file}"], {"entries": [{"name": "x"}]}, 1),
    (["check", "{file}", "--disk", "3"], {"terms": 5, "group": 3}, 1),
    (["check", fx("solid_torus_3.json"), "--disk", "0"], None, 1),
    (["check", fx("solid_torus_3.json"), "--disk", "-1"], None, 1),
    (["polytope", fx("solid_torus_3.json"), "--tsv", "{tmp}/missing/x.tsv"], None, 1),
    (["polytope", fx("solid_torus_3.json"), "--svg", "{tmp}/missing/x.svg"], None, 1),
], ids=["alpha-wrong-rank", "alpha-not-integers", "polytope-of-zero-tau",
        "manifest-without-entries", "manifest-int-entry", "manifest-entry-without-path",
        "records-wrong-shape", "disk-zero", "disk-negative", "tsv-unwritable",
        "svg-unwritable"])
def test_malformed_arguments_exit_with_error(argv, payload, exit_code, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *[a.format(file=path, tmp=tmp_path) for a in argv])
    assert code == exit_code
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["batch", fx("manifest.json"), "--parallel", "x"],
    ["check", fx("solid_torus_3.json"), "--disk", "q"],
    ["nosuch"],
    ["polytope"],
], ids=["parallel-not-int", "disk-not-int", "unknown-command", "missing-path"])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.startswith("usage: sutor")
    assert "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["batch", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sutor")


def chain(n):
    """Generators a0..an and relators a_i^2 a_(i+1)^-1: H = Z with a_i the
    2^i-th power of t, so 3n + 1 Fox terms give tau = prod_(i<n) (1 + t^(2^i))
    with 2^n terms."""
    return {"generators": [f"a{i}" for i in range(n + 1)],
            "relators": [f"a{i}^2 a{i + 1}^-1" for i in range(n)], "rminus": [f"a{n}"]}


@pytest.mark.parametrize("payload, error", [
    ({"generators": ["a", "b"], "relators": ["a^1000000000"], "rminus": ["b"]},
     "error: 1000000001 Fox terms are over the work budget of 1000000"),
    (chain(40),
     "error: a determinant of 1099511627776 powers of t is over the work budget of 1000000"),
    ({"generators": ["a", "b"], "relators": ["(a b)^1000000000"], "rminus": ["b"]},
     "error: a power of 2000000000 letters is over the work budget of 1000000"),
], ids=["huge-exponent", "chain-40", "huge-power"])
def test_over_work_budget_exits_1_fast(payload, error, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", error + "\n")


def test_exponent_past_the_int_string_limit_exits_1(tmp_path, capsys):
    """5,000 digits are past CPython's default int-string limit of 4,300:
    a ParseError at the exponent, not int()'s message without a position."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "relators": [],
                                "rminus": ["b a^-" + "9" * 5000]}))
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "compute", str(path))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (1, "")
    assert err == "error: exponent of 5000 digits is too long (at position 4)\n"


def test_cofactor_over_work_budget_exits_1(tmp_path, capsys):
    """On Z^2, diag(a^100000, b^100000) has 200,000 Fox terms, within the
    budget, but its first cofactor line would make 10^10 term products: the
    expansion stops before it; unchecked, it ran past a 20 s timeout.  The
    time left is the assembly of those Fox terms on packed keys, about
    0.15 s on a 2-vCPU VM with CPython 3.11."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "relators": [],
                                "rminus": ["a^100000", "b^100000"]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", str(path))
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err == ("error: a cofactor expansion of at least 10000000000 term products "
                   "is over the work budget of 1000000\n")


def test_rank_one_cofactor_over_work_budget_exits_1(tmp_path, capsys):
    """n generators, no relators and n copies of the R_- word a1^2 ... an^2:
    a rank-one matrix of two-term entries, so every 2 x 2 minor is zero and
    the expansion makes no term products.  The blocks it settles still count
    against the budget; uncounted, n = 18 ran for 8.6 s on a 2-vCPU VM and
    the time grew 4.4x per two generators."""
    n = 22
    names = [f"a{i}" for i in range(1, n + 1)]
    word = " ".join(f"{a}^2" for a in names)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"generators": names, "relators": [], "rminus": [word] * n}))
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", str(path))
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err.startswith("error: a cofactor expansion of at least ")
    assert err.endswith(" block rows is over the work budget of 1000000\n")


def test_polytope_output(capsys):
    code, out, err = run(capsys, "polytope", fx("pretzel_even_1_1_1.json"),
                         "--alpha", "1,0", "--alpha", "0,1", "--diff")
    assert code == 0
    assert "support: 3 points in dimension 2" in out
    assert "width[1,0] = 1" in out
    assert "width[0,1] = 1" in out
    assert "centrally symmetric: no" in out
    assert "difference polytope: 6 vertices" in out


def test_polytope_tsv_and_svg(tmp_path, capsys):
    tsv = tmp_path / "s.tsv"
    svg = tmp_path / "s.svg"
    code, out, err = run(capsys, "polytope", fx("solid_torus_3.json"),
                         "--tsv", str(tsv), "--svg", str(svg))
    assert code == 0
    assert tsv.read_text() == "0\t1\n1\t1\n2\t1\n"
    assert svg.read_text().startswith("<svg")


def test_polytope_three_vars_svg_refused(capsys, tmp_path):
    """The refusal comes before any output: no report and no --tsv file."""
    tsv = tmp_path / "o.tsv"
    code, out, err = run(capsys, "polytope", fx("cc.json"),
                         "--tsv", str(tsv), "--svg", str(tmp_path / "x.svg"))
    assert (code, out) == (3, "")
    assert not tsv.exists()


def test_polytope_diff_in_low_dimension_solves_no_lp(capsys, tmp_path):
    """polytope --diff in dimensions 1, 2 and 3: the extreme points, the
    monotone chain and the facet hull are exact without an LP, and src/
    holds none (test_polytope.test_src_holds_no_lp)."""
    code, out, err = run(capsys, "gen", "solid-torus", "200")
    assert code == 0
    path = tmp_path / "solid_torus_200.json"
    path.write_text(out)
    code, out, err = run(capsys, "polytope", str(path), "--diff")
    assert code == 0
    assert out.splitlines() == [
        "support: 200 points in dimension 1",
        "hull vertices: (0,) (199,)",
        "centrally symmetric: yes",
        "difference polytope: 2 vertices: (-199,) (199,)",
    ]
    code, out, err = run(capsys, "polytope", fx("pretzel_odd_3_3_3.json"), "--diff")
    assert code == 0
    assert out.splitlines() == [
        "support: 37 points in dimension 2",
        "hull vertices: (0, 0) (0, 3) (3, -3) (3, 3) (6, -3) (6, 0)",
        "centrally symmetric: yes",
        "difference polytope: 6 vertices: (-6, 0) (-6, 6) (0, -6) (0, 6) (6, -6) (6, 0)",
    ]
    code, out, err = run(capsys, "polytope", fx("cc.json"), "--diff")
    assert code == 0
    assert out.splitlines() == [
        "support: 4 points in dimension 3",
        "hull vertices: (0, 0, 0) (1, -1, 0) (1, 0, -1) (1, 0, 0)",
        "centrally symmetric: no",
        "difference polytope: 12 vertices: (-1, 0, 0) (-1, 0, 1) (-1, 1, 0) (0, -1, 0) "
        "(0, -1, 1) (0, 0, -1) (0, 0, 1) (0, 1, -1) (0, 1, 0) (1, -1, 0) (1, 0, -1) (1, 0, 0)",
    ]


def test_check_eval_and_aug(capsys):
    code, out, err = run(capsys, "check", fx("trefoil.json"), "--eval", "--aug")
    assert code == 0
    assert out.count("PASS") == 2
    assert "|eps(tau)| = 1" in out


def test_check_disk_on_serialized_tau(capsys):
    code, out, err = run(capsys, "check", fx("goda_tau.json"), "--disk", "10")
    assert code == 0
    assert "OBSTRUCTED" in out
    assert "NOT OBSTRUCTED" not in out


def test_check_disk_not_obstructed(capsys):
    code, out, err = run(capsys, "check", fx("solid_torus_3.json"), "--disk", "10")
    assert code == 0
    assert "NOT OBSTRUCTED" in out
    assert "matches solid torus p = 3" in out


def test_check_disk_reads_products_off_coefficients(capsys, monkeypatch, tmp_path):
    def no_division(p, q):
        raise AssertionError("disk report reached group-ring division")

    monkeypatch.setattr(P, "exact_div", no_division, raising=False)
    Z = AbelianGroup(1)
    extremal = ["  extremal(+1): matches solid torus p = 1",
                "  extremal(-1): matches solid torus p = 1"]
    path = tmp_path / "x.json"
    for terms, lines in (
        ({0: 1, 1: 2, 2: 2, 3: 1},
         ["disk decomposition: NOT OBSTRUCTED (p capped at 4 by degree span)",
          "  tau: matches product p = (2, 3)"]),
        ({0: 1, 10 ** 9: 1},
         ["disk decomposition: NOT OBSTRUCTED (p searched up to 10)",
          "  tau: no solid-torus match"]),
    ):
        tau = element(Z, {AbElement((k,), ()): c for k, c in terms.items()})
        path.write_text(json.dumps(to_records(tau)))
        code, out, err = run(capsys, "check", str(path), "--disk", "10")
        assert code == 0
        assert out.splitlines() == lines + extremal


def test_check_stdin(capsys, monkeypatch):
    import sys
    payload = json.dumps({"generators": ["a"], "relators": [], "rminus": ["a^3"]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, err = run(capsys, "check", "-", "--eval", "--aug")
    assert code == 0
    assert out.count("PASS") == 2
    with open(fx("goda_tau.json"), encoding="utf-8") as fh:
        monkeypatch.setattr(sys, "stdin", io.StringIO(fh.read()))
    code, out, err = run(capsys, "check", "-", "--disk", "3")
    assert code == 0
    assert out.startswith("disk decomposition: ")


@pytest.mark.parametrize("inp, message", [
    ({"generators": ["a"], "relators": [], "rminus": ["a^0"]}, "zero torsion"),
    ({"generators": ["a", "b"], "relators": ["a^2"], "rminus": ["b"]},
     "disk obstruction needs a rank-1 torsion-free group"),
])
def test_check_disk_refuses_before_any_output(capsys, monkeypatch, inp, message):
    """Both identity checks pass on these inputs, but the disk report refuses
    them, so nothing is printed before exit 3: no verdict of --eval/--aug."""
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(inp)))
    code, out, err = run(capsys, "check", "-", "--eval", "--aug", "--disk", "3")
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


def test_check_eval_needs_presentation(capsys):
    for flags in (["--eval"], ["--disk", "10", "--aug"]):
        code, out, err = run(capsys, "check", fx("goda_tau.json"), *flags)
        assert code == 1
        assert out == ""
        assert "presentation" in err


def test_check_without_flags_errors(capsys):
    code, out, err = run(capsys, "check", fx("cc.json"))
    assert code == 1


def test_booleans_in_a_serialized_tau_exit_1(capsys, tmp_path):
    tau = {"group": {"rank": True, "torsion": []},
           "terms": [{"coeff": True, "free": [False], "tor": []}]}
    (tmp_path / "b.json").write_text(json.dumps(tau))
    code, out, err = run(capsys, "check", str(tmp_path / "b.json"), "--disk", "3")
    assert (code, out) == (1, "")
    assert err == "error: records need a group with an integer rank\n"
    (tmp_path / "a.json").write_text(
        json.dumps({"generators": ["a"], "relators": [], "rminus": ["a"]}))
    (tmp_path / "m.json").write_text(json.dumps(
        {"entries": [{"path": "a.json", "expected_tau": tau}]}))
    code, out, err = run(capsys, "batch", str(tmp_path / "m.json"))
    assert code == 1
    assert out.splitlines() == ["FAIL a.json: records need a group with an integer rank",
                                "0/1 passed"]


@pytest.mark.parametrize("torsion", [[0, 2], [0], [2, 0], [-2, 4], [1, 2]])
def test_torsion_below_2_in_a_serialized_tau_exits_1(capsys, tmp_path, torsion):
    """A divisor below 2 is refused before the chain test divides by it."""
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"group": {"rank": 0, "torsion": torsion}, "terms": []}))
    code, out, err = run(capsys, "check", str(path), "--disk", "3")
    assert (code, out) == (1, "")
    assert err == "error: torsion divisors must be >= 2\n"


def test_a_serialized_tau_of_a_huge_rank_ends_in_time(capsys, tmp_path):
    """A 50-byte record of rank WORK_BUDGET is read, and refused by the disk
    report (exit 3), in time linear in the rank; one coordinate more is
    refused before any codec is built (exit 1)."""
    path = tmp_path / "r.json"
    for rank, torsion, code, seconds in ((WORK_BUDGET, [], 3, 20),
                                         (WORK_BUDGET + 1, [], 1, 1), (WORK_BUDGET, [2], 1, 1)):
        path.write_text(json.dumps({"group": {"rank": rank, "torsion": torsion}, "terms": []}))
        start = time.perf_counter()
        assert run(capsys, "check", str(path), "--disk", "3")[:2] == (code, "")
        assert time.perf_counter() - start < seconds, rank
    err = run(capsys, "check", str(path), "--disk", "3")[2]
    assert err == (f"error: a group of {WORK_BUDGET + 1} coordinates is over the work "
                   f"budget of {WORK_BUDGET}\n")


def test_gen_round_trip(capsys):
    code, out, err = run(capsys, "gen", "pretzel-odd", "1", "1", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["generators"] == ["a", "b"]
    assert obj["rminus"] == ["a^2 b^-1 a", "a b^2"]


def test_gen_errors(capsys):
    code, out, err = run(capsys, "gen", "nosuch")
    assert code == 1
    assert "unknown family" in err
    code, out, err = run(capsys, "gen", "solid-torus")
    assert code == 1
    code, out, err = run(capsys, "gen", "solid-torus", "0")
    assert code == 1


def test_batch_all_pass(capsys):
    code, out, err = run(capsys, "batch", fx("manifest.json"))
    assert code == 0
    assert out.strip().endswith("9/9 passed")
    assert "FAIL" not in out


def test_batch_corrupted_entry_isolated(tmp_path, capsys):
    good = json.dumps({"generators": ["a"], "relators": [], "rminus": ["a^2"]})
    (tmp_path / "good.json").write_text(good)
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "m.json").write_text(json.dumps(
        {"entries": ["good.json", "bad.json"]}))
    code, out, err = run(capsys, "batch", str(tmp_path / "m.json"))
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("PASS good.json")
    assert lines[1].startswith("FAIL bad.json")
    assert lines[2] == "1/2 passed"


def test_batch_expected_tau_mismatch(tmp_path, capsys):
    good = json.dumps({"generators": ["a"], "relators": [], "rminus": ["a^2"]})
    (tmp_path / "good.json").write_text(good)
    wrong = {"group": {"rank": 1, "torsion": []},
             "terms": [{"coeff": 5, "free": [0], "tor": []}]}
    (tmp_path / "m.json").write_text(json.dumps(
        {"entries": [{"path": "good.json", "expected_tau": wrong}]}))
    code, out, err = run(capsys, "batch", str(tmp_path / "m.json"))
    assert code == 1
    assert "MISMATCH" in out


def test_version(capsys):
    code, out, err = run(capsys, "version")
    assert code == 0
    assert out.startswith("sutor ")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    from sutor import cli
    built, build_parser = [], cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    try:
        first = run(capsys, "compute", fx("solid_torus_3.json"))
        second = run(capsys, "compute", fx("solid_torus_3.json"))
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert first == second and first[0] == 0
    assert cli.build_parser() is not cli.build_parser()


def test_batch_parallel_determinism(capsys):
    code1, out1, err1 = run(capsys, "batch", fx("manifest.json"), "--parallel", "1")
    code8, out8, err8 = run(capsys, "batch", fx("manifest.json"), "--parallel", "8")
    assert code1 == code8 == 0
    assert out1 == out8


def test_batch_runs_without_a_thread_pool():
    import subprocess
    import sys

    import sutor
    src = os.path.dirname(os.path.dirname(os.path.abspath(sutor.__file__)))
    code = ("import sys\n"
            "from sutor import cli\n"
            f"rc = cli.main(['batch', {fx('manifest.json')!r}, '--parallel', '8'])\n"
            "print(rc, 'concurrent.futures' in sys.modules, file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["0", "False"]


# Small JSON values: exponents and coordinates stay tiny so no example does
# heavy work, and a few real fixture paths let batch entries compute.
json_leaf = st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(
    ["", "a", "a^2 b", "x y", "terms", fx("solid_torus_3.json"), fx("trefoil.json")])
json_value = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["entries", "path", "name", "expected_tau", "group", "terms",
                         "rank", "torsion", "coeff", "free", "tor", "generators",
                         "rminus"]), inner, max_size=4),
    max_leaves=12,
)
record_term = st.fixed_dictionaries({"coeff": json_value, "free": json_value,
                                     "tor": json_value})
records = st.fixed_dictionaries({
    "group": st.fixed_dictionaries({"rank": json_value, "torsion": json_value}) | json_value,
    "terms": st.lists(record_term, max_size=3) | json_value,
})
manifest_entry = json_value | st.fixed_dictionaries(
    {"path": st.sampled_from([fx("solid_torus_3.json"), "missing.json"])},
    optional={"name": json_value, "expected_tau": records | json_value})


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@given(manifest=json_value | st.lists(manifest_entry, max_size=3)
       | st.fixed_dictionaries({"entries": st.lists(manifest_entry, max_size=3)}),
       checked=json_value | records)
@settings(max_examples=150, deadline=None)
def test_fuzzed_manifests_and_records_exit_cleanly(tmp_path_factory, manifest, checked):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "m.json").write_text(json.dumps(manifest))
    (d / "r.json").write_text(json.dumps(checked))
    assert _exit_code(["batch", str(d / "m.json")]) in (0, 1, 2, 3)
    for flags in (["--disk", "3"], ["--eval", "--aug"]):
        assert _exit_code(["check", str(d / "r.json"), *flags]) in (0, 1, 2, 3)


# Every field of a serialized tau from every JSON kind: ints (small and
# unbounded), booleans, floats with NaN and infinities, strings, nulls and
# nested lists of these; or, as often, a value of the field's own shape, so
# that records get past their first field and some are well formed.
record_field = st.recursive(
    st.integers(-3, 3) | st.integers() | st.booleans() | st.floats() | st.text(max_size=3)
    | st.none(),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)
small_ints = st.lists(st.integers(-3, 3), max_size=2)
fuzz_records = st.fixed_dictionaries({
    "group": st.fixed_dictionaries({
        "rank": st.integers(0, 2) | record_field,
        "torsion": st.sampled_from([[], [2], [2, 4], [6]]) | record_field}),
    "terms": st.lists(st.fixed_dictionaries({
        "coeff": st.integers(-3, 3) | record_field,
        "free": small_ints | record_field,
        "tor": small_ints | record_field}), max_size=3),
})


@given(records=fuzz_records)
@settings(max_examples=200, deadline=None)
def test_fuzzed_tau_records_end_with_an_exit_code(tmp_path_factory, records):
    """Records reach check and batch expected_tau; each run ends with exit
    code 1, 2 or 3, or 0 only on records that from_records accepts, and
    from_records raises nothing but ValueError, so batch's per-entry catch
    hides no other error."""
    try:
        normalize(from_records(records))
        valid = True
    except ValueError:
        valid = False
    allowed = (0, 1, 2, 3) if valid else (1, 2, 3)
    d = tmp_path_factory.mktemp("records")
    (d / "r.json").write_text(json.dumps(records))
    (d / "m.json").write_text(json.dumps(
        [{"path": fx("solid_torus_3.json"), "expected_tau": records}]))
    assert _exit_code(["check", str(d / "r.json"), "--disk", "3"]) in allowed
    assert _exit_code(["check", str(d / "r.json"), "--eval"]) == 1
    assert _exit_code(["batch", str(d / "m.json")]) in allowed


# Words of at most 6 characters: an exponent has at most 4 digits, so no
# example does unbounded Fox work.  Some are well formed, so every exit code
# is reached.
fuzz_word = st.sampled_from(["a^2", "a", "b^-1", "a b", "a^3 b", "1"]) | st.text(
    alphabet="ab()^-12 ", max_size=6)
fuzz_inputs = json_value | st.fixed_dictionaries({
    "generators": st.sampled_from([["a"], ["a", "b"]])
    | st.lists(st.sampled_from(["a", "b"]), max_size=3) | json_value,
    "relators": st.lists(fuzz_word, max_size=1) | json_value,
    "rminus": st.lists(fuzz_word, min_size=1, max_size=2) | json_value,
})


@given(payload=fuzz_inputs)
@settings(max_examples=100, deadline=None)
def test_fuzzed_inputs_end_with_an_exit_code(tmp_path_factory, payload):
    text = json.dumps(payload)
    path = tmp_path_factory.mktemp("input") / "in.json"
    path.write_text(text)
    for argv in (["compute", "-"], ["compute", "--json", "-"],
                 ["polytope", str(path), "--diff"],
                 ["check", str(path), "--eval", "--aug", "--disk", "3"]):
        with unittest.mock.patch("sys.stdin", io.StringIO(text)):
            try:
                code = _exit_code(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), argv


@st.composite
def presentations(draw):
    """1-3 generators, words of at most three syllables, a square Fox matrix."""
    gens = ["a", "b", "c"][:draw(st.integers(1, 3))]
    syllable = st.tuples(st.sampled_from(gens), st.sampled_from([-2, -1, 1, 2]))
    word = st.lists(syllable, min_size=1, max_size=3).map(
        lambda syls: " ".join(f"{g}^{k}" for g, k in syls))
    words = draw(st.lists(word, min_size=len(gens), max_size=len(gens)))
    k = draw(st.integers(0, len(gens) - 1))  # relators; the rest are R- words
    return {"generators": gens, "relators": words[:k], "rminus": words[k:]}


def _hull_line(points) -> str:
    return " ".join(str(v) for v in points)


@given(inp=presentations())
@settings(max_examples=100, deadline=None)
def test_fuzzed_presentations_polytope_matches_legacy_hull(tmp_path_factory, inp):
    path = tmp_path_factory.mktemp("poly") / "in.json"
    path.write_text(json.dumps(inp))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["polytope", str(path), "--diff"])
    assert code in (0, 1, 2, 3)
    if code != 0:
        return
    S = P.support(E.torsion(E.input_from_dict(inp)).tau)
    lines = out.getvalue().splitlines()
    verts = legacy_polytope.hull_vertices(list(S.points))
    assert lines[1] == "hull vertices: " + _hull_line(verts)
    if len(S.points) <= 8:  # the legacy difference hull runs one LP per difference
        dverts = legacy_polytope.difference_polytope(S)
        assert lines[3] == f"difference polytope: {len(dverts)} vertices: " + _hull_line(dverts)


@given(inp=presentations())
@settings(max_examples=100, deadline=None)
def test_fuzzed_presentations_compute_matches_cofactor(tmp_path_factory, inp):
    path = tmp_path_factory.mktemp("compute") / "in.json"
    path.write_text(json.dumps(inp))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["compute", str(path), "--json"])
    assert code in (0, 1, 2, 3)
    if code != 0:
        return
    res = E.torsion(E.input_from_dict(inp))
    if res.H.rank + len(res.H.torsion) > 1:
        return
    words = list(res.input.relators) + list(res.input.rminus)
    A = fox_matrix(res.input.alphabet, words, res.abelianization)
    assert json.loads(out.getvalue())["tau"] == to_records(normalize(_cofactor(A)))


def test_polytope_diff_hulls_the_support_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"generators": ["a", "b", "c"], "relators": [],
                                "rminus": ["a b^-1", "b^2 c", "c a^2"]}))
    calls, loops = [], []
    hull, facet_hull = P.hull_vertices, P._facet_hull
    monkeypatch.setattr(P, "hull_vertices", lambda pts: calls.append(len(pts)) or hull(pts))
    monkeypatch.setattr(P, "_facet_hull", lambda pts, simplex: loops.append(len(pts))
                        or facet_hull(pts, simplex))
    code, out, _ = run(capsys, "polytope", str(path), "--diff")
    assert code == 0
    assert out.splitlines()[0] == "support: 4 points in dimension 3"
    assert calls == [4]  # the support; the difference polytope reads its cached hull
    assert loops == [4, 13]  # the support, then the distinct differences of its 4 vertices
    # in the plane and on a line, --svg draws the cached hull too, and the
    # file is the legacy SVG of the support
    chains = []
    hull_2d = P.convex_hull_2d
    monkeypatch.setattr(P, "convex_hull_2d", lambda pts: chains.append(len(pts)) or hull_2d(pts))
    for rminus, dim in ((["a b^-1 a", "b^2 a b"], 2), (["a^3"], 1)):
        path.write_text(json.dumps({"generators": ["a", "b"][:len(rminus)], "relators": [],
                                    "rminus": rminus}))
        svg = tmp_path / f"{dim}.svg"
        tau = E.torsion(E.input_from_dict(json.loads(path.read_text()))).tau
        chains.clear()
        code, out, _ = run(capsys, "polytope", str(path), "--diff", "--svg", str(svg))
        assert code == 0 and out.splitlines()[-1] == f"wrote {svg}"
        assert out.splitlines()[0] == f"support: {len(tau.terms)} points in dimension {dim}"
        assert chains == ([len(tau.terms)] if dim == 2 else [])  # the support's chain only
        assert svg.read_text() == legacy_polytope.to_svg(P.support(tau))


def test_no_subcommand_prints_help(capsys):
    code, out, err = run(capsys)
    assert code == 1 and out.startswith("usage: sutor") and err == ""


def test_compute_notes_an_unasserted_irreducibility(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"generators": ["a"], "relators": [], "rminus": ["a^3"],
                                "claimed_irreducible": False}))
    code, out, err = run(capsys, "compute", str(path))
    assert code == 0
    assert "note: irreducibility not asserted; det(A) reported as-is\n" in out
    assert "tau ~ 1 + t + t^2" in out
