"""End-to-end tests for the command line: documents, reports, cache, exits."""

import argparse
import json
import os
import re
import sys
from pathlib import Path

import pytest

from koszul import __version__, cli
from koszul.exactla import QQ, Field, Window, StructuralError
from koszul.artin import radical_filtration
from koszul.dga import (
    algebra_slice, finite_dga_from_tables, free_assoc, square_zero, truncated_polynomial,
)
from koszul.cli import (
    main, parse_algebra_document, parse_field_name,
    DocumentError,
)


@pytest.fixture()
def docs(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)
    return write


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("KOSZUL_CACHE_DIR", str(tmp_path / "cache"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def dims_of(report, key="dims"):
    return {d: n for d, n in report["result"][key]}


# -- documents ----------------------------------------------------------------


def export_algebra_document(fdga):
    """Render a complete finite slice as an explicit algebra document.

    Re-parsing the result reproduces the slice label for label; this is the
    round trip that pins the document format.
    """
    field = fdga.field
    basis = [[l, d] for d in sorted(fdga.basis) for l in fdga.labels(d)]
    diff = {}
    mult = []
    aug = {}
    for l, _ in basis:
        image = fdga.diff(l)
        if image:
            diff[l] = [[field.format(c), m] for m, c in sorted(image.items())]
        value = fdga.aug_of(l)
        if fdga.degree(l) == 0 and not field.is_zero(value):
            aug[l] = field.format(value)
    for a, _ in basis:
        for b, _ in basis:
            lc = fdga.mult(a, b)
            if lc:
                mult.append([a, b,
                             [[field.format(c), m] for m, c in sorted(lc.items())]])
    return {
        "name": fdga.name,
        "field": field.name,
        "basis": basis,
        "differential": diff,
        "multiplication": mult,
        "unit": fdga.unit,
        "augmentation": aug,
    }


def test_builder_round_trips_through_export():
    slice_ = algebra_slice(square_zero(QQ, 1), Window(-1, 0))
    doc = export_algebra_document(slice_)
    handle = parse_algebra_document(doc, QQ)
    again = handle.fdga
    assert again.dims() == slice_.dims()
    for d, labels in slice_.basis.items():
        assert again.labels(d) == labels
        for l in labels:
            assert again.diff(l) == slice_.diff(l)
            assert again.aug_of(l) == slice_.aug_of(l)
            for l2 in labels:
                assert again.mult(l, l2) == slice_.mult(l, l2)


def test_truncated_builder_round_trips():
    slice_ = algebra_slice(truncated_polynomial(QQ, 3, 0), Window(0, 0))
    doc = export_algebra_document(slice_)
    again = parse_algebra_document(doc, QQ).fdga
    assert again.mult("x", "x") == slice_.mult("x", "x")
    assert again.mult("x", "x^2") == {}


def test_field_names_parse():
    assert parse_field_name("Q") == QQ
    assert parse_field_name("Fp:5") == Field(5)
    with pytest.raises(DocumentError):
        parse_field_name("R")


def test_explicit_document_must_validate():
    bad = {
        "basis": [["1", 0], ["e", -1]],
        "differential": {},
        "multiplication": [["1", "1"], ["1", "e"], ["e", "1"]],
        "unit": "1",
        "augmentation": {"1": "1"},
    }
    with pytest.raises(DocumentError):
        parse_algebra_document(bad, QQ)


def test_laurent_is_refused_in_algebra_position(docs, capsys):
    path = docs("lau.json", {"builder": "laurent", "g": 2})
    code, report, err = run(capsys, "dual", path, "--window=0..4", "--no-cache")
    assert code == 2
    assert "module" in err


# -- reports and exit codes -----------------------------------------------------


def test_dual_report_matches_known_dims(docs, capsys):
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    code, report, _ = run(capsys, "dual", path, "--window=0..8",
                          "--power-gen", "2", "--no-cache")
    assert code == 0
    assert dims_of(report) == {d: (1 if d % 2 == 0 else 0) for d in range(9)}
    assert report["result"]["power_generated"] is True
    assert report["field"] == "Q"
    assert report["window"] == [0, 8]


def test_dual_ring_flag_emits_constants(docs, capsys):
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    code, report, _ = run(capsys, "dual", path, "--window=0..4", "--ring",
                          "--no-cache")
    assert code == 0
    assert any(entry for entry in report["result"]["ring"])


def test_ext_agrees_with_dual(docs, capsys):
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    code, report, _ = run(capsys, "ext", path, "--window=0..8", "--no-cache")
    assert code == 0
    assert report["result"]["agree"] is True
    assert dims_of(report, "ext_dims") == dims_of(report, "dual_dims")


def test_ext_of_a_shuffled_table_agrees_with_dual(docs, capsys):
    # k[x,y,z]/(x^2,y^2,z^2) with its basis out of degree order
    monomials = ["1", "xz", "z", "y", "x", "yz", "xy", "xyz"]
    bare = {m: "" if m == "1" else m for m in monomials}
    mult = [[a, b, [["1", "".join(sorted(bare[a] + bare[b])) or "1"]]]
            for a in monomials for b in monomials
            if not set(bare[a]) & set(bare[b])]
    path = docs("xyz.json", {
        "basis": [[m, 0] for m in monomials], "differential": {},
        "multiplication": mult, "unit": "1", "augmentation": {"1": "1"}})
    code, report, _ = run(capsys, "ext", path, "--window=0..4", "--no-cache")
    assert code == 0
    assert report["result"]["agree"] is True
    assert dims_of(report, "ext_dims") == {0: 1, 1: 3, 2: 6, 3: 10, 4: 15}


def test_bidual_refuses_degree_zero_extension(docs, capsys):
    path = docs("sq0.json", {"builder": "square_zero", "n": 0})
    code, report, _ = run(capsys, "bidual", path, "--window=-2..1", "--no-cache")
    assert code == 2
    assert "non-convergent biduality" in report["flags"]["refusal"]
    assert report["result"] is None


def test_bidual_agreement_on_square_zero(docs, capsys):
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    code, report, _ = run(capsys, "bidual", path, "--window=-3..1", "--no-cache")
    assert code == 0
    assert report["result"]["agree"] is True
    assert dims_of(report, "bidual_dims") == {-3: 0, -2: 0, -1: 1, 0: 1, 1: 0}


def test_tensor_with_strict_comparison(docs, capsys):
    left = docs("k.json", {"module": "trivial"})
    alg = docs("u2.json", {"builder": "free_assoc", "gens": [["u", 2]]})
    code, report, _ = run(capsys, "tensor", left, alg, left, "--window=0..2",
                          "--strict-via-kos", "1", "--no-cache")
    assert code == 0
    assert dims_of(report, "derived_dims") == {0: 1, 1: 1, 2: 0}
    assert dims_of(report, "strict_dims") == {0: 1, 1: 1, 2: 0}
    assert report["result"]["strict_matches_derived"] is True


def test_tensor_refusal_carries_generator_degrees(docs, capsys):
    left = docs("lau.json", {"module": "laurent", "g": 2})
    alg = docs("u2.json", {"builder": "free_assoc", "gens": [["u", 2]]})
    right = docs("k.json", {"module": "trivial"})
    code, report, _ = run(capsys, "tensor", left, alg, right, "--window=0..2",
                          "--no-cache")
    assert code == 2
    assert report["flags"]["refusal"]


def test_the_removed_weight_cap_flag_is_an_unknown_option(docs, capsys):
    """--max-weight is gone: a script that still passes it stops with a
    parse error (exit 4) rather than getting an answer it did not ask for."""
    alg = docs("cubic.json", {"builder": "truncated_polynomial", "m": 3, "d": 0})
    k = docs("k.json", {"module": "trivial"})
    for argv in (("bar", alg), ("tensor", k, alg, k)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--window=-7..0", "--max-weight=3", "--no-cache"])
        assert exc.value.code == 4
        assert "unrecognized arguments: --max-weight=3" in capsys.readouterr().err


def test_every_flag_the_readme_names_is_accepted():
    """Each --flag in README's "Command line" section is an option of some
    subcommand, so a removed flag cannot stay documented."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    accepted = {flag for sub in subparsers.choices.values() for flag in sub._option_string_actions}
    assert named >= {"--window", "--field", "--cache-dir"}
    assert named <= accepted, sorted(named - accepted)


# each subcommand's positionals as (dest, nargs, default), its own options
# as (flags, dest, default, type, metavar, required), and whether --window
# is required (True), optional (False) or absent (None)
_OWN_PIN = {
    "validate": ([("algebra", None, None)], [], True),
    "bar": ([("algebra", None, None)], [], True),
    "dual": ([("algebra", None, None)], [
        (["--ring"], "ring", False, None, None, False),
        (["--power-gen"], "power_gen", None, int, "G", False)], True),
    "ext": ([("algebra", None, None)], [], True),
    "bidual": ([("algebra", None, None)], [], True),
    "tensor": ([("left", None, None), ("algebra", None, None), ("right", None, None)],
               [(["--strict-via-kos"], "strict_via_kos", None, int, "N", False)], True),
    "square": ([("square", None, None)], [], False),
    "series": ([("ring", None, None), ("module", "?", None)], [], None),
}

_COMMON_PIN = [
    (["--field"], "field", None, None, "Q|Fp:P", False),
    (["--no-cache"], "no_cache", False, None, None, False),
    (["--cache-dir"], "cache_dir", None, None, "PATH", False),
]


def test_each_subcommand_takes_its_documents_and_options_in_order(docs, capsys):
    """The parser's surface, subcommand by subcommand: positional documents
    in order, then the subcommand's own options, --window where it has one,
    and the options every subcommand shares."""
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(_OWN_PIN)
    for name, (positionals, own, window) in _OWN_PIN.items():
        actions = [a for a in subparsers.choices[name]._actions
                   if not isinstance(a, argparse._HelpAction)]
        assert [(a.dest, a.nargs, a.default) for a in actions
                if not a.option_strings] == positionals, name
        expected = list(own)
        if window is not None:
            expected.append((["--window"], "window", None, cli._window_type,
                             "LO..HI", window))
        expected += _COMMON_PIN
        assert [(a.option_strings, a.dest, a.default, a.type, a.metavar, a.required)
                for a in actions if a.option_strings] == expected, name
    k = docs("k.json", {"module": "trivial"})
    alg = docs("u2.json", {"builder": "free_assoc", "gens": [["u", 2]]})
    code, report, _ = run(capsys, "tensor", k, alg, k, "--window=0..1",
                          "--strict-via-kos", "1", "--no-cache")
    assert code == 0
    assert report["options"] == {"strict_via_kos": 1}


def test_square_verdict_for_small_extension(docs, capsys):
    path = docs("sq.json", {"square": "small_extension",
                            "algebra": {"builder": "square_zero", "n": 0},
                            "shift": 1})
    code, report, _ = run(capsys, "square", path, "--no-cache")
    assert code == 0
    assert report["result"]["verdict"] is True
    assert dict((d, n) for d, n in report["result"]["fiber_product_dims"]) \
        == {0: 3, 1: 1}


def test_a_windowed_square_may_hide_corner_degrees_outside_the_fiber_product(docs, capsys):
    """The corner k[x]/x^3, |x| = -2, has x^2 in degree -4, where the fiber
    product at s = 3 has no basis: the window -3..3 leaves it out and the
    square holds, and with no window it is a false verdict, not a crash."""
    path = docs("sq.json", {"square": "small_extension",
                            "algebra": {"builder": "truncated_polynomial",
                                        "m": 3, "d": -2},
                            "shift": 3})
    code, report, err = run(capsys, "square", path, "--window=-3..3", "--no-cache")
    assert (code, err) == (0, "")
    assert report["result"]["verdict"] is True
    assert report["result"]["fiber_product_dims"] == [[-2, 1], [0, 2], [1, 1]]
    code, report, err = run(capsys, "square", path, "--no-cache")
    assert (code, err) == (0, "")
    assert report["result"]["verdict"] is False
    assert "at degree -4" in report["result"]["reason"]


def test_series_of_truncated_cubic(docs, capsys):
    path = docs("cubic.json", {"builder": "truncated_polynomial", "m": 3, "d": 0})
    code, report, _ = run(capsys, "series", path, "--no-cache")
    assert code == 0
    assert report["result"]["radical_dims"] == [3, 2, 1, 0]
    assert report["result"]["length"] == 3
    assert report["result"]["factors"] == ["k", "k", "k"]


@pytest.mark.parametrize("field", ["Q", "Fp:5"])
def test_series_over_the_regular_module_is_the_default(docs, capsys, field):
    ring = docs("quartic.json", {"builder": "truncated_polynomial", "m": 4, "d": 0})
    regular = docs("regular.json", {"module": "regular"})
    code, default, _ = run(capsys, "series", ring, "--field", field, "--no-cache")
    assert code == 0
    code, explicit, _ = run(capsys, "series", ring, regular, "--field", field, "--no-cache")
    assert code == 0
    assert explicit["result"] == default["result"]
    assert default["result"]["radical_dims"] == [4, 3, 2, 1, 0]


def test_validate_reports_axioms(docs, capsys):
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    code, report, _ = run(capsys, "validate", path, "--window=-1..0",
                          "--no-cache")
    assert code == 0
    assert report["result"]["ok"] is True
    assert all(report["result"]["checks"].values())


def test_validate_flags_broken_table(docs, capsys):
    path = docs("bad.json", {
        "basis": [["1", 0], ["e", 0]],
        "differential": {},
        "multiplication": [
            ["1", "1", [["1", "1"]]], ["1", "e", [["1", "e"]]],
            ["e", "1", [["1", "e"]]], ["e", "e", [["1", "1"]]],
        ],
        "unit": "1",
        "augmentation": {"1": "1"},
    })
    code, report, _ = run(capsys, "validate", path, "--window=0..0",
                          "--no-cache")
    assert code == 3
    assert report["result"]["ok"] is False
    assert "augmentation" in [
        name for name, v in report["result"]["checks"].items() if not v]


# (basis entries, differential) of explicit tables whose differential is
# malformed; the last case is on the top degree, which the assembler never
# visits, so the builder has to refuse it itself
BAD_DIFFERENTIALS = {
    "unknown_label": ([["1", 0], ["t", -1]], {"zzz": [[1, "t"]]}),
    "wrong_degree": ([["1", 0], ["t", -1], ["s", -2]], {"s": [[1, "1"]]}),
    "top_degree": ([["1", 0], ["t", -1]], {"1": [[1, "t"]]}),
}


@pytest.mark.parametrize("case", sorted(BAD_DIFFERENTIALS))
def test_explicit_table_refuses_bad_differential(case, docs, capsys):
    entries, differential = BAD_DIFFERENTIALS[case]
    basis = {}
    for label, d in entries:
        basis.setdefault(d, []).append(label)
    diff = {l: {m: QQ.of_int(c) for c, m in terms}
            for l, terms in differential.items()}
    with pytest.raises(StructuralError):
        finite_dga_from_tables(QQ, Window(min(basis), max(basis)), basis, diff,
                               {("1", "1"): {"1": QQ.one}}, "1", {"1": QQ.one},
                               complete=True)
    path = docs("bad.json", {
        "basis": entries,
        "differential": differential,
        "multiplication": [["1", "1", [[1, "1"]]]],
        "unit": "1",
        "augmentation": {"1": "1"},
    })
    code, report, err = run(capsys, "validate", path, "--window=-2..0",
                            "--no-cache")
    assert code == 3
    assert report is None
    assert "structural failure" in err


# k[x]/x^2 as an explicit table, and (overrides, exit code, stderr) of its
# malformed variants: a key of the wrong shape is a parse error naming the
# key, and a product or an augmentation on a label outside the basis is a
# structural failure, as a differential on one is, and so is an augmentation
# on a label outside degree 0
DUAL_NUMBERS = {
    "basis": [["1", 0], ["x", 0]],
    "differential": {},
    "multiplication": [["1", "1", [[1, "1"]]], ["1", "x", [[1, "x"]]],
                       ["x", "1", [[1, "x"]]]],
    "unit": "1",
    "augmentation": {"1": "1"},
}
MALFORMED_TABLES = {
    "augmentation_list": ({"augmentation": [["1", "1"]]}, 4,
                          "parse error: 'augmentation' must be an object"),
    "differential_list": ({"differential": [["x", []]]}, 4,
                          "parse error: 'differential' must be an object"),
    "unit_list": ({"unit": ["1"]}, 4, "parse error: 'unit' must be the name"),
    "field_int": ({"field": 7}, 4, "parse error: 'field' must be a string"),
    "product_unknown_label": (
        {"multiplication": DUAL_NUMBERS["multiplication"] + [["x", "q", [[1, "x"]]]]}, 3,
        "structural failure: product given for unknown label 'q'"),
    "augmentation_unknown_label": (
        {"augmentation": {"1": "1", "q": "1"}}, 3,
        "structural failure: augmentation is given on 'q', which is not a basis label"),
    "augmentation_outside_degree_0": (
        {"basis": DUAL_NUMBERS["basis"] + [["t", -1]],
         "multiplication": DUAL_NUMBERS["multiplication"] + [["1", "t", [[1, "t"]]],
                                                             ["t", "1", [[1, "t"]]]],
         "augmentation": {"1": "1", "t": "1"}}, 3,
        "structural failure: augmentation is nonzero on 't' outside degree 0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_table_exits_with_its_code_and_names_the_key(case, docs, capsys):
    overrides, want, message = MALFORMED_TABLES[case]
    path = docs("bad.json", {**DUAL_NUMBERS, **overrides})
    for command in ("validate", "bar", "ext"):
        code, report, err = run(capsys, command, path, "--window=0..2", "--no-cache")
        assert (code, report) == (want, None)
        assert err.startswith(f"koszul: {message}")
    code, _, _ = run(capsys, "validate", docs("good.json", DUAL_NUMBERS),
                     "--window=0..2", "--no-cache")
    assert code == 0


@pytest.mark.parametrize("repeat", [["x", 0], ["x", -1]], ids=("one-degree", "two-degrees"))
def test_a_table_that_lists_a_label_twice_is_a_structural_failure(repeat, docs, capsys):
    path = docs("twice.json", {**DUAL_NUMBERS, "basis": DUAL_NUMBERS["basis"] + [repeat]})
    for command in ("validate", "bar"):
        assert main([command, path, "--window=0..2", "--no-cache"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "koszul: structural failure: duplicate basis label 'x'\n"


@pytest.mark.parametrize("ring", [
    {"builder": "truncated_polynomial", "m": 3, "d": 0},
    DUAL_NUMBERS,
], ids=["cubic", "table"])
def test_series_with_a_module_leaving_its_degree_0_basis_exits_three(docs, capsys, ring):
    ring = docs("ring.json", ring)
    laurent = docs("lau.json", {"module": "laurent", "g": 2})
    code, report, _ = run(capsys, "series", ring, laurent, "--no-cache")
    assert code == 3
    assert report["result"] is None
    assert report["flags"] == {"structural": (
        "k[t,1/t:2]: 'x' acting on '1' gives 't', outside the module's degree-0 basis")}


def test_parse_error_names_position(docs, capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"builder": }')
    code, report, err = run(capsys, "dual", str(p), "--window=0..2", "--no-cache")
    assert code == 4
    assert "broken.json:1:" in err


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = run(capsys, "dual", "/nonexistent.json", "--window=0..2",
                       "--no-cache")
    assert code == 4


def test_bad_window_exits_four(docs, capsys):
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    with pytest.raises(SystemExit) as exc:
        main(["dual", path, "--window", "nope"])
    assert exc.value.code == 4


def test_field_flag_conflicts_with_document(docs, capsys):
    path = docs("explicit.json", {
        "field": "Fp:5",
        "basis": [["1", 0]],
        "differential": {},
        "multiplication": [["1", "1", [["1", "1"]]]],
        "unit": "1",
        "augmentation": {"1": "1"},
    })
    code, _, err = run(capsys, "validate", path, "--window=0..0", "--field", "Q",
                       "--no-cache")
    assert code == 4
    assert "field" in err


def test_field_flag_selects_prime_field(docs, capsys):
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    code, report, _ = run(capsys, "dual", path, "--window=0..4",
                          "--field", "Fp:5", "--no-cache")
    assert code == 0
    assert report["field"] == "Fp:5"
    assert dims_of(report) == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}


def test_a_large_prime_field_answers_and_one_past_the_primality_bound_exits_four(docs, capsys):
    """2^61 - 1 is tested by Miller-Rabin, not trial division, so the call
    answers; a modulus at or above the bound where the test is
    deterministic is refused as a bad field."""
    path = docs("cubic.json", {"builder": "truncated_polynomial", "m": 3, "d": 0})
    code, report, _ = run(capsys, "bar", path, "--window=-4..0",
                          "--field", "Fp:2305843009213693951", "--no-cache")
    assert code == 0 and report["field"] == "Fp:2305843009213693951"
    assert dims_of(report) == {d: 1 for d in range(-4, 1)}
    code, report, err = run(capsys, "bar", path, "--window=-4..0",
                            "--field", "Fp:3317044064679887385961981", "--no-cache")
    assert code == 4 and report is None and "too large" in err


def test_a_window_wider_than_the_recursion_limit_answers(docs, capsys):
    """square_zero(2) has at most one chain per degree; each is built from
    the one three degrees up, and the memos are filled from there outward,
    so 0..3000 answers at the default recursion limit, as 0..900 does."""
    path = docs("sq2.json", {"builder": "square_zero", "n": 2})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, report, _ = run(capsys, "dual", path, "--window=0..3000", "--no-cache")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert dims_of(report) == {d: int(d % 3 == 0) for d in range(3001)}


def test_free_words_far_from_degree_0_answer_at_the_recursion_limit(docs, capsys):
    """k<u> with |u| = -2 has one word in each even degree, each built from
    the one two degrees up; the words are made from degree 0 outward, so
    degree -3000 is listed at the default recursion limit, and `validate`
    answers on -3000..-2990."""
    path = docs("free.json", {"builder": "free_assoc", "gens": [["u", -2]]})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert free_assoc(QQ, [("u", -2)]).basis(-3000) == ("*".join(["u"] * 1500),)
        code, report, _ = run(capsys, "validate", path, "--window=-3000..-2990", "--no-cache")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0


def test_the_shared_parser_keeps_no_option_between_calls(docs, capsys, tmp_path):
    """The parser is built once per process; neither a call's flags nor a
    failed parse carry over into the next call."""
    assert cli._build_parser() is cli._build_parser()
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    code, report, _ = run(capsys, "dual", path, "--window=0..4", "--ring",
                          "--power-gen", "2", "--field", "Fp:5", "--no-cache")
    assert code == 0
    assert report["options"] == {"ring": True, "power_gen": 2}
    assert report["field"] == "Fp:5"
    with pytest.raises(SystemExit) as exc:
        main(["tensor", path, path, path, "--window=-2..0", "--strict-via-kos", "two"])
    assert exc.value.code == 4
    code, report, _ = run(capsys, "bar", path, "--window=-3..0")
    assert code == 0
    assert report["options"] == {}
    assert report["field"] == "Q"
    # --no-cache did not stick: this report was cached
    assert os.listdir(tmp_path / "cache") == [report["input_hash"] + ".json"]
    code, report, _ = run(capsys, "dual", path, "--window=0..4")
    assert code == 0
    assert report["options"] == {"ring": False, "power_gen": None}


# -- cache ----------------------------------------------------------------------


def strip_duration(report):
    return {k: v for k, v in report.items() if k != "duration_seconds"}


def test_cache_round_trip_is_byte_identical_minus_duration(docs, capsys,
                                                           tmp_path):
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    cache = str(tmp_path / "cache")
    code1, r1, _ = run(capsys, "dual", path, "--window=0..4",
                       "--cache-dir", cache)
    code2, r2, _ = run(capsys, "dual", path, "--window=0..4",
                       "--cache-dir", cache)
    assert code1 == code2 == 0
    assert strip_duration(r1) == strip_duration(r2)
    assert len(os.listdir(cache)) == 1


def test_the_d_squared_mark_stays_out_of_reports_and_cache(docs, capsys, tmp_path):
    """Which check established d^2 = 0 (CochainComplexSlice.certified_by)
    enters neither a report nor a cache entry."""
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    cache = tmp_path / "cache"
    text = []
    for argv in (("bar", "--window=-4..0"), ("dual", "--window=0..4")):
        code, report, _ = run(capsys, argv[0], path, argv[1], "--cache-dir", str(cache))
        assert code == 0
        text.append(json.dumps(report))
    text += [entry.read_text() for entry in cache.iterdir()]
    assert len(text) == 4
    assert not any(word in t for t in text for word in ("certified", "letters", "transpose"))


def test_cache_distinguishes_windows(docs, capsys, tmp_path):
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    cache = str(tmp_path / "cache")
    _, r1, _ = run(capsys, "dual", path, "--window=0..4", "--cache-dir", cache)
    _, r2, _ = run(capsys, "dual", path, "--window=0..6", "--cache-dir", cache)
    assert r1["input_hash"] != r2["input_hash"]
    assert len(os.listdir(cache)) == 2


def test_refusals_are_not_cached(docs, capsys, tmp_path):
    path = docs("sq0.json", {"builder": "square_zero", "n": 0})
    cache = str(tmp_path / "cache")
    code, _, _ = run(capsys, "bidual", path, "--window=-2..1",
                     "--cache-dir", cache)
    assert code == 2
    assert not os.path.exists(cache) or not os.listdir(cache)


def test_corrupt_cache_entry_is_recomputed_and_rewritten(docs, capsys,
                                                        tmp_path):
    path = docs("cubic.json", {"builder": "truncated_polynomial", "m": 3,
                               "d": 0})
    cache = str(tmp_path / "cache")
    code1, r1, _ = run(capsys, "bar", path, "--window=-4..0",
                       "--cache-dir", cache)
    (name,) = os.listdir(cache)
    entry = os.path.join(cache, name)
    with open(entry, "r+", encoding="utf-8") as fh:
        text = fh.read()
        fh.seek(0)
        fh.truncate()
        fh.write(text[: len(text) // 2])
    code2, r2, _ = run(capsys, "bar", path, "--window=-4..0",
                       "--cache-dir", cache)
    assert code1 == code2 == 0
    assert r2["result"] == r1["result"]
    with open(entry, "r", encoding="utf-8") as fh:
        assert json.load(fh)["result"] == r1["result"]


def test_cache_key_follows_the_engine_sources(docs, capsys, tmp_path,
                                              monkeypatch):
    assert cli._engine_key().startswith(__version__ + "+")
    path = docs("cubic.json", {"builder": "truncated_polynomial", "m": 3,
                               "d": 0})
    cache = str(tmp_path / "cache")
    argv = ("bar", path, "--window=-4..0", "--cache-dir", cache)
    _, r1, _ = run(capsys, *argv)
    _, warm, _ = run(capsys, *argv)
    assert strip_duration(warm) == strip_duration(r1)
    monkeypatch.setattr(cli, "_engine_key", lambda: __version__ + "+edited")
    code, r2, _ = run(capsys, *argv)
    assert code == 0
    assert r2["input_hash"] != r1["input_hash"]  # recomputed, not served
    assert r2["result"] == r1["result"]
    assert sorted(os.listdir(cache)) == sorted(
        [r1["input_hash"] + ".json", r2["input_hash"] + ".json"])
    _, again, _ = run(capsys, *argv)
    assert strip_duration(again) == strip_duration(r2)


@pytest.mark.parametrize("content", ['"x"', "[1, 2]", "7", "null", "{}", "another report"])
def test_cache_entry_that_is_not_this_report_is_a_miss(content, docs, capsys,
                                                       tmp_path):
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    cache = str(tmp_path / "cache")
    argv = ("bar", path, "--window=-3..0", "--cache-dir", cache)
    code1, r1, _ = run(capsys, *argv)
    entry = os.path.join(cache, r1["input_hash"] + ".json")
    if content == "another report":
        _, other, _ = run(capsys, "bar", path, "--window=-4..0", "--cache-dir", cache)
        with open(os.path.join(cache, other["input_hash"] + ".json"),
                  encoding="utf-8") as fh:
            content = fh.read()
    with open(entry, "w", encoding="utf-8") as fh:
        fh.write(content)
    code2, r2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert strip_duration(r2) == strip_duration(r1)
    with open(entry, "r", encoding="utf-8") as fh:
        assert json.load(fh) == strip_duration(r1)


def canonical_text(out):
    return json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class FakeTime:
    """Stands in for cli's time module: each main call reads the clock
    twice, so successive calls take these durations in turn."""

    def __init__(self, *durations):
        self.ticks = iter([t for d in durations for t in (0.0, d)])

    def monotonic(self):
        return next(self.ticks)


BYTE_CASES = {
    "validate": (["validate", "{sq1}", "--window=-1..0"], 0),
    "validate broken": (["validate", "{bad}", "--window=0..0"], 3),
    "bar": (["bar", "{sq1}", "--window=-4..0"], 0),
    "dual": (["dual", "{sq1}", "--window=0..6", "--power-gen", "2"], 0),
    "dual --ring": (["dual", "{cubic}", "--window=0..4", "--ring"], 0),
    "ext": (["ext", "{sq1}", "--window=0..4", "--field", "Fp:5"], 0),
    "bidual": (["bidual", "{sq1}", "--window=-3..1"], 0),
    "bidual refusal": (["bidual", "{sq0}", "--window=-2..1"], 2),
    "tensor": (["tensor", "{k}", "{u2}", "{k}", "--window=0..2",
                "--strict-via-kos", "1"], 0),
    "square": (["square", "{square}"], 0),
    "series": (["series", "{cubic}", "{regular}"], 0),
}


@pytest.mark.parametrize("case", sorted(BYTE_CASES))
def test_miss_and_hit_print_the_canonical_bytes(case, docs, capsys, monkeypatch):
    """Each report is encoded once and a hit prints the stored text, yet both
    print exactly what json.dumps(sort_keys=True, indent=2) gives for the
    report, and differ only on the duration line."""
    paths = {
        "sq0": docs("sq0.json", {"builder": "square_zero", "n": 0}),
        "sq1": docs("sq1.json", {"builder": "square_zero", "n": 1}),
        "cubic": docs("cubic.json", {"builder": "truncated_polynomial",
                                     "m": 3, "d": 0}),
        "u2": docs("u2.json", {"builder": "free_assoc", "gens": [["u", 2]]}),
        "k": docs("k.json", {"module": "trivial"}),
        "regular": docs("regular.json", {"module": "regular"}),
        "square": docs("sq.json", {"square": "small_extension",
                                   "algebra": {"builder": "square_zero", "n": 0},
                                   "shift": 1}),
        "bad": docs("bad.json", {
            "basis": [["1", 0], ["e", 0]], "differential": {},
            "multiplication": [
                ["1", "1", [["1", "1"]]], ["1", "e", [["1", "e"]]],
                ["e", "1", [["1", "e"]]], ["e", "e", [["1", "1"]]]],
            "unit": "1", "augmentation": {"1": "1"}}),
    }
    argv, expected = BYTE_CASES[case]
    argv = [a.format(**paths) for a in argv]
    monkeypatch.setattr(cli, "time", FakeTime(0.031415926, 1.2e-05))
    outs = []
    for _ in range(2):
        assert main(argv) == expected
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == canonical_text(captured.out)
        outs.append(captured.out.splitlines())
    miss, hit = outs
    assert len(miss) == len(hit)
    assert [i for i, (a, b) in enumerate(zip(miss, hit)) if a != b] \
        == [miss.index('  "duration_seconds": 0.031416,')]
    assert '  "duration_seconds": 1.2e-05,' in hit


def test_series_options_hold_no_document_path(tmp_path, capsys, monkeypatch):
    """series names its ring document "ring", as dual names its --ring flag;
    the document's path enters neither the options nor the cache key."""
    doc = json.dumps({"builder": "truncated_polynomial", "m": 3, "d": 0})
    paths = []
    for where in ("one", "two"):
        (tmp_path / where).mkdir()
        (tmp_path / where / "cubic.json").write_text(doc)
        paths.append(str(tmp_path / where / "cubic.json"))
    calls = []
    monkeypatch.setattr(cli, "radical_filtration",
                        lambda *a, **k: calls.append(a) or radical_filtration(*a, **k))
    cache = tmp_path / "cache"
    reports = []
    for path in paths:
        code, report, _ = run(capsys, "series", path, "--cache-dir", str(cache))
        assert code == 0
        assert report["options"] == {}
        reports.append(strip_duration(report))
    assert reports[0] == reports[1]
    assert os.listdir(cache) == [reports[0]["input_hash"] + ".json"]
    assert len(calls) == 1  # the second path was served from the cache


def test_cache_entry_in_another_layout_is_a_miss_and_rewritten(docs, capsys,
                                                               tmp_path):
    """This very report, valid and with the right input_hash, but encoded
    compactly, is recomputed and stored again in the stored layout."""
    path = docs("cubic.json", {"builder": "truncated_polynomial", "m": 3, "d": 0})
    cache = tmp_path / "cache"
    argv = ("dual", path, "--window=0..4", "--ring", "--cache-dir", str(cache))
    _, r1, _ = run(capsys, *argv)
    entry = cache / (r1["input_hash"] + ".json")
    stored = entry.read_text(encoding="utf-8")
    assert stored == canonical_text(stored)
    entry.write_text(json.dumps(json.loads(stored)), encoding="utf-8")
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert out == canonical_text(out)
    assert strip_duration(json.loads(out)) == strip_duration(r1)
    assert entry.read_text(encoding="utf-8") == stored


@pytest.mark.parametrize("blocker", ["cache dir is a file", "entry is a directory"])
def test_unusable_cache_still_emits_the_report(blocker, docs, capsys, tmp_path):
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    argv = ("bar", path, "--window=-3..0")
    _, fresh, _ = run(capsys, *argv, "--no-cache")
    cache = tmp_path / "unusable"
    if blocker == "cache dir is a file":
        cache.write_text("")
    else:
        (cache / (fresh["input_hash"] + ".json")).mkdir(parents=True)
    code, report, err = run(capsys, *argv, "--cache-dir", str(cache))
    assert code == 0
    assert strip_duration(report) == strip_duration(fresh)
    assert len(err.splitlines()) == 1 and "warning" in err
