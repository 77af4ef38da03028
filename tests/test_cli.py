"""End-to-end tests for the command line: documents, reports, cache, exits."""

import json
import os

import pytest

from koszul import __version__, cli
from koszul.exactla import QQ, Field, Window, StructuralError
from koszul.dga import (
    algebra_slice, finite_dga_from_tables, square_zero, truncated_polynomial,
)
from koszul.cli import (
    main, parse_algebra_document, export_algebra_document, parse_field_name,
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


def test_tensor_refuses_a_negative_weight_cap_as_bar_does(docs, capsys):
    alg = docs("cubic.json", {"builder": "truncated_polynomial", "m": 3, "d": 0})
    k = docs("k.json", {"module": "trivial"})
    for argv in (("bar", alg), ("tensor", k, alg, k)):
        code, report, _ = run(capsys, *argv, "--window=-3..0", "--max-weight=-1",
                              "--no-cache")
        assert code == 2
        assert report["flags"]["refusal"] == "negative weight cap -1"
        assert report["result"] is None


def test_square_verdict_for_small_extension(docs, capsys):
    path = docs("sq.json", {"square": "small_extension",
                            "algebra": {"builder": "square_zero", "n": 0},
                            "shift": 1})
    code, report, _ = run(capsys, "square", path, "--no-cache")
    assert code == 0
    assert report["result"]["verdict"] is True
    assert dict((d, n) for d, n in report["result"]["fiber_product_dims"]) \
        == {0: 3, 1: 1}


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


def test_the_shared_parser_keeps_no_option_between_calls(docs, capsys, tmp_path):
    """The parser is built once per process; neither a call's flags nor a
    failed parse carry over into the next call."""
    assert cli._build_parser() is cli._build_parser()
    path = docs("sq1.json", {"builder": "square_zero", "n": 1})
    code, report, _ = run(capsys, "dual", path, "--window=0..4", "--ring",
                          "--power-gen", "2", "--max-weight", "6",
                          "--field", "Fp:5", "--no-cache")
    assert code == 0
    assert report["options"] == {"ring": True, "power_gen": 2, "max_weight": 6}
    assert report["field"] == "Fp:5"
    with pytest.raises(SystemExit) as exc:
        main(["tensor", path, path, path, "--window=-2..0", "--strict-via-kos", "two"])
    assert exc.value.code == 4
    code, report, _ = run(capsys, "bar", path, "--window=-3..0")
    assert code == 0
    assert report["options"] == {"max_weight": None}
    assert report["field"] == "Q"
    # --no-cache did not stick: this report was cached
    assert os.listdir(tmp_path / "cache") == [report["input_hash"] + ".json"]
    code, report, _ = run(capsys, "dual", path, "--window=0..4")
    assert code == 0
    assert report["options"] == {"ring": False, "power_gen": None, "max_weight": None}


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
