"""Bar construction tests: frozen homology values, weight bounds,
truncation stability, deconcatenation algebra, refusals."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from koszul.exactla import Window, QQ, Field, StructuralError
from koszul.dga import (
    DgAlgebraSpec, square_zero, truncated_polynomial, free_assoc,
    tensor_algebra, algebra_slice, finite_dga_from_tables,
)
from koszul import bar as bars
from koszul.bar import (
    ConvergenceError, weight_bound, bar_complex, bar_homology_dims,
    two_sided_bar, derived_tensor_dims, dual_complex,
)
from koszul.dgmod import trivial_module, regular_module, laurent_module
from koszul.dual import koszul_dual_slice

from matrix_reference import key

F5 = Field(5)


def nonzero(dims):
    return {d: n for d, n in dims.items() if n}


# ---------------------------------------------------------------------------
# weight bounds and regimes


def test_weight_bound_connective():
    assert weight_bound(square_zero(QQ, 1), Window(-6, 0)) == 6
    assert weight_bound(square_zero(QQ, 2), Window(0, 4)) == 0
    assert weight_bound(truncated_polynomial(QQ, 3, 0), Window(-3, 2)) == 3


def test_weight_bound_coconnected():
    u3 = free_assoc(QQ, [("u", 3)])  # letters of shifted degree 2
    assert weight_bound(u3, Window(0, 10)) == 5
    assert weight_bound(u3, Window(0, 5)) == 3
    u2 = free_assoc(QQ, [("u", 2)])
    assert weight_bound(u2, Window(0, 10)) == 10


def test_weight_bound_none_for_divergent_inputs():
    u1 = free_assoc(QQ, [("u", 1)])
    assert weight_bound(u1, Window(0, 4)) is None
    # ideal basis in degrees -1 and 2 with all ideal products zero: degrees
    # of both signs, so no regime applies
    one = QQ.one
    table = {-1: ("e",), 0: ("1",), 2: ("v",)}

    def mult(x, y):
        if x == "1":
            return {y: one}
        if y == "1":
            return {x: one}
        return {}

    mixed = DgAlgebraSpec(
        QQ, "mixed", basis=lambda d: table.get(d, ()),
        degree=lambda l: {"e": -1, "1": 0, "v": 2}[l],
        diff=lambda l: {}, mult=mult, unit="1",
        aug=lambda l: one if l == "1" else QQ.zero,
        min_degree=-1, max_degree=2)
    assert weight_bound(mixed, Window(-2, 2)) is None
    with pytest.raises(ConvergenceError):
        bar_complex(mixed, Window(-2, 2))


@pytest.mark.parametrize("window, cap", [(Window(0, 4), 2), (Window(0, 6), 3)])
def test_both_bars_and_the_dual_report_the_longest_chain(window, cap):
    """The reduced bar, B(k, A, k) and the dual report one weight cap, the
    most letters a chain of the padded window has, and a chain attains it.
    weight_bound stays an upper bound: ceil(hi / g) over the padded top,
    one more than the cap here (u has shifted degree 2)."""
    u3 = free_assoc(QQ, [("u", 3)])
    k = trivial_module(u3)
    reduced, two = bar_complex(u3, window), two_sided_bar(k, u3, k, window)
    dual = koszul_dual_slice(u3, window.mirrored())
    assert reduced.max_weight == two.max_weight == dual.max_weight == cap
    for words in (reduced.basis.values(), dual.algebra.complex().basis.values(),
                  [[w for _, w, _ in labels] for labels in two.basis.values()]):
        assert max(len(w) for ws in words for w in ws) == cap
    assert weight_bound(u3, window.padded()) == cap + 1


def test_divergent_inputs_refused_with_degrees():
    u1 = free_assoc(QQ, [("u", 1)])
    with pytest.raises(ConvergenceError) as exc:
        bar_complex(u1, Window(-1, 3))
    assert 1 in exc.value.degrees


def test_augmentation_adapted_basis_is_required():
    # k x k presented on the idempotent basis: aug(b) = 1 on a degree-0
    # non-unit label, which the bar enumeration must reject.
    one = QQ.one

    def mult(x, y):
        if x == "1":
            return {y: one}
        if y == "1":
            return {x: one}
        return {"b": one}  # b*b = b

    spec = DgAlgebraSpec(
        QQ, "kxk", basis=lambda d: ("1", "b") if d == 0 else (),
        degree=lambda l: 0, diff=lambda l: {}, mult=mult, unit="1",
        aug=lambda l: one, min_degree=0, max_degree=0)
    with pytest.raises(StructuralError):
        bar_complex(spec, Window(-2, 0))


# ---------------------------------------------------------------------------
# frozen homology values


def test_square_zero_one_homology():
    dims = bar_homology_dims(square_zero(QQ, 1), Window(-6, 0))
    assert nonzero(dims) == {0: 1, -2: 1, -4: 1, -6: 1}


def test_square_zero_zero_homology():
    dims = bar_homology_dims(square_zero(QQ, 0), Window(-4, 0))
    assert dims == {d: 1 for d in range(-4, 1)}


def test_truncated_polynomial_homology():
    # k[x]/x^3: the minimal resolution alternates x and x^2, one class per
    # degree; the overcounted bar basis (2^w words in degree -w) collapses.
    dims = bar_homology_dims(truncated_polynomial(QQ, 3, 0), Window(-3, 0))
    assert dims == {0: 1, -1: 1, -2: 1, -3: 1}
    dims2 = bar_homology_dims(truncated_polynomial(QQ, 2, 0), Window(-3, 0))
    assert dims2 == {0: 1, -1: 1, -2: 1, -3: 1}


def test_free_one_generator_homology():
    for n in (1, 2):
        spec = free_assoc(QQ, [("u", n + 1)])
        dims = bar_homology_dims(spec, Window(-1, n + 2))
        assert nonzero(dims) == {0: 1, n: 1}


def test_field_independence_of_frozen_values():
    for field in (QQ, F5):
        assert nonzero(bar_homology_dims(square_zero(field, 1), Window(-4, 0))) \
            == {0: 1, -2: 1, -4: 1}
        assert bar_homology_dims(truncated_polynomial(field, 3, 0), Window(-2, 0)) \
            == {0: 1, -1: 1, -2: 1}


# ---------------------------------------------------------------------------
# structure of the materialized slice


def test_bar_dims_count_words():
    # k[x]/x^3 has 2 letters of shifted degree -1, so 2^w words in degree -w.
    slice_ = bar_complex(truncated_polynomial(QQ, 3, 0), Window(-3, 0))
    dims = slice_.dims()
    assert dims[0] == 1 and dims[-1] == 2 and dims[-2] == 4 and dims[-3] == 8


def test_differential_respects_word_length():
    # each differential term keeps the length (internal d) or drops it by
    # one (merge), so word length filters the complex.
    slice_ = bar_complex(square_zero(QQ, 2), Window(-7, 0))
    for d, words in slice_.basis.items():
        if d + 1 not in slice_.padded:
            continue
        targets = slice_.basis.get(d + 1, ())
        mat = slice_.complex.d_at(d)
        for (i, j), _ in mat.entries.items():
            assert len(targets[i]) in (len(words[j]), len(words[j]) - 1)


def _degrees(dims, window):
    return {d: dims[d] for d in window.degrees()}


def test_truncation_stability():
    # widening the window by two degrees on the side that raises the weight
    # cap (down when connective, up when coconnected) changes no dimension
    spec = square_zero(QQ, 1)
    w, wide = Window(-4, 0), Window(-6, 0)
    assert weight_bound(spec, wide.padded()) == weight_bound(spec, w.padded()) + 2
    assert _degrees(bar_homology_dims(spec, wide), w) == bar_homology_dims(spec, w)
    spec2 = free_assoc(QQ, [("u", 2)])
    w2, wide2 = Window(0, 4), Window(0, 6)
    assert weight_bound(spec2, wide2.padded()) == weight_bound(spec2, w2.padded()) + 2
    assert _degrees(bar_homology_dims(spec2, wide2), w2) == bar_homology_dims(spec2, w2)


@settings(max_examples=20, deadline=None)
@given(lo=st.integers(-8, 0), width=st.integers(0, 4))
def test_square_zero_two_closed_form(lo, width):
    # H^d(Bar k+k[2]) = 1 iff 3 | d, on any window
    w = Window(lo - width, lo)
    dims = bar_homology_dims(square_zero(QQ, 2), w)
    for d in w.degrees():
        assert dims[d] == (1 if d % 3 == 0 else 0)


# ---------------------------------------------------------------------------
# two-sided bar


def test_two_sided_with_regular_module_resolves_k():
    spec = square_zero(QQ, 1)
    dims = derived_tensor_dims(
        trivial_module(spec), spec, regular_module(spec), Window(-3, 1))
    assert nonzero(dims) == {0: 1}


def test_two_sided_with_trivial_modules_is_reduced_bar():
    spec = square_zero(QQ, 1)
    k = trivial_module(spec)
    assert nonzero(derived_tensor_dims(k, spec, k, Window(-2, 0))) \
        == {0: 1, -2: 1}
    u2 = free_assoc(QQ, [("u", 2)])
    k2 = trivial_module(u2)
    assert nonzero(derived_tensor_dims(k2, u2, k2, Window(-1, 2))) \
        == {0: 1, 1: 1}


@pytest.mark.parametrize("spec, lo, hi", [
    (truncated_polynomial(QQ, 3, 0), -6, 0),
    (square_zero(QQ, 2), 0, 9),
    (square_zero(QQ, 2), -9, 0),
    (square_zero(F5, 1), 0, 8),
    (square_zero(F5, 1), -8, 0),
    (square_zero(QQ, 0), -5, 0),
])
def test_two_sided_with_trivial_modules_is_reduced_bar_on_chains(spec, lo, hi):
    # B(k, A, k) and the reduced bar agree label by label and matrix by
    # matrix once the (m, word, n) labels are reduced to their words.
    k = trivial_module(spec)
    window = Window(lo, hi)
    two = two_sided_bar(k, spec, k, window)
    red = bar_complex(spec, window)
    assert {d: tuple(word for _, word, _ in labels)
            for d, labels in two.basis.items()} == red.basis
    assert two.complex.window == red.complex.window
    for d in red.complex.window.degrees():
        assert key(two.complex.d_at(d)) == key(red.complex.d_at(d))


def test_two_sided_weight_zero_part():
    spec = square_zero(QQ, 1)
    slice_ = two_sided_bar(
        trivial_module(spec), spec, regular_module(spec), Window(-3, 1))
    # labels are (m, word, n); the weight-0 part M ox N has the empty word
    weight_zero = {d: n for d, labels in slice_.basis.items()
                   if (n := sum(1 for _, word, _ in labels if not word))}
    assert weight_zero == {0: 1, -1: 1}


def test_two_sided_truncation_stability():
    spec = square_zero(QQ, 1)
    k, reg = trivial_module(spec), regular_module(spec)
    w, wide = Window(-3, 1), Window(-5, 1)
    base = two_sided_bar(k, spec, reg, w)
    again = two_sided_bar(k, spec, reg, wide)
    assert again.max_weight == base.max_weight + 2
    assert _degrees(again.homology_dims(), w) == base.homology_dims()


def test_two_sided_needs_module_bounds():
    base = free_assoc(QQ, [("t", 2)])
    k = trivial_module(base)
    lau = laurent_module(QQ, 2)
    with pytest.raises(ConvergenceError):
        two_sided_bar(k, base, lau, Window(-2, 2))


# ---------------------------------------------------------------------------
# wide windows


@pytest.fixture()
def default_recursion_limit():
    """The interpreter's default recursion limit, restored afterwards."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def test_wide_windows_do_not_recurse_once_per_degree(default_recursion_limit):
    """k + k[0] and k + k·e with |e| = 2 have one chain in each degree, each
    built from the one before: the memos of blocks, label_chains, prefixes
    and cocolumns are filled from the base degree outward, so a window
    wider than the recursion limit answers like a narrow one, on either
    side of the base."""
    w = 1200
    tor = {d: 1 for d in range(-w, 1)}
    for field in (QQ, F5):
        spec = square_zero(field, 0)
        assert bar_homology_dims(spec, Window(-w, 0)) == tor
        bar = bar_complex(spec, Window(-w, 0))
        assert bar.basis[-w] == (("e",) * w,)
        assert bar.homology_dims() == tor
        k = trivial_module(spec)
        assert derived_tensor_dims(k, spec, k, Window(-w, 0)) == tor
        dual, chains = dual_complex(spec, Window(0, w))
        assert dual.cohomology().dims == {d: 1 for d in range(w + 1)}
        assert chains.table.enum.prefixes(-w, -w - 1) == [0]
        # coconnected: e of shifted degree 1, the base degree 0 at the bottom
        one = field.one
        spec = finite_dga_from_tables(
            field, Window(0, 2), {0: ["1"], 2: ["e"]}, {},
            {("1", "1"): {"1": one}, ("1", "e"): {"e": one}, ("e", "1"): {"e": one}},
            "1", {"1": one}, True).as_spec()
        cotor = {d: 1 for d in range(w + 1)}
        assert bar_homology_dims(spec, Window(0, w)) == cotor
        k = trivial_module(spec)
        assert derived_tensor_dims(k, spec, k, Window(0, w)) == cotor
        bar = bar_complex(spec, Window(0, w))
        assert bar.basis[w] == (("e",) * w,)
        assert bar.homology_dims() == cotor


def _walked(spec, window, order, pairs=(), right=None):
    """A fresh enumerator of spec's chains (ending in right, or in k) asked
    for blocks and label_chains of each degree of order, in that order,
    then its letter table on window for cocolumns of each degree of order
    whose predecessor lies in window, then for the prefixes of pairs:
    (enum, table, entries), entries keyed by (memo, degree or pair)."""
    enum = bars._ChainEnumerator(spec, bars._regime(spec, window), right)
    entries = {}
    for d in order:
        entries["blocks", d] = enum.blocks(d)
        entries["labels", d] = enum.label_chains(d)
    table = bars._LetterTable(spec, enum, window.lo, window.hi,
                              max(enum.blocks(d)[0] for d in order))
    table.scale_to_ints()
    table.cotables()
    for d in order:
        if d - 1 in window:
            entries["cocolumns", d] = table.cocolumns(d)
    for pair in pairs:
        entries["prefixes", pair] = enum.prefixes(*pair)
    return enum, table, entries


def _assert_gap_free(enum, table):
    """Each memo's keys run from the base degree outward with no gap."""
    step = -1 if enum.connective else 1
    for memo in (enum.memo, enum.label_memo, table.comemo, *enum.prefix_memo.values()):
        assert sorted(memo, reverse=enum.connective) == \
            list(range(enum.reach, enum.reach + step * len(memo), step))


@pytest.mark.parametrize("case", ["k+k[2]", "k[x]/x^4", "k<u2,v3>", "B(reg,A,k)"])
def test_the_walk_does_not_depend_on_request_order(case):
    """Asked far degrees first, degrees beyond the base, or a two-sided
    bar's tail degrees d - |m|, a fresh enumerator makes the same entries,
    and indexes the same letters, as one asked from the base outward."""
    connective = case in ("k+k[2]", "k[x]/x^4")
    if case == "k+k[2]":  # letters of shift -3 only: most degrees hold no chain
        spec, lettered = square_zero(QQ, 2), [-3]
    elif case == "k[x]/x^4":  # |x| = -2: letters of shifts -3, -5 and -7
        spec, lettered = truncated_polynomial(QQ, 4, -2), [-3, -5, -7]
    else:
        spec, lettered = free_assoc(QQ, [("u", 2), ("v", 3)]), list(range(1, 13))
    if connective:
        window = Window(-13, 1)
        degrees = [-13, -7, 1, -12, 0, -1, -3, -6, -9, -2, -4, -5, -8, -10, -11, 3]
    else:
        window = Window(-1, 12)
        degrees = [12, 5, -1, 9, 0, 3, 11, 1, -3, 7, 2, 4, 6, 8, 10]
    probe = bars._ChainEnumerator(spec, bars._regime(spec, window))
    # x ++ y for x of degree d1 and y of degree e, far d1 first
    pairs = [(d1, d1 + e) for d1 in degrees for e in window.degrees()
             if probe.blocks(e)[0] and d1 + e in window]
    right = None
    if case == "B(reg,A,k)":
        # the degrees _two_sided asks for: d - |m| for each m of each d
        left, right, pairs = regular_module(spec), trivial_module(spec), []
        degrees = [d - dm for d in window.degrees()
                   for dm in range(left.min_degree, d - right.min_degree + 1) if left.basis(dm)]
    enum, table, entries = _walked(spec, window, degrees, pairs, right)
    outward = sorted(set(degrees), reverse=connective)
    first, _, base_first = _walked(spec, window, outward, sorted(pairs), right)
    assert entries == base_first
    assert enum.letter.labels == first.letter.labels
    assert enum.lettered == first.lettered
    assert [s for s, _ in enum.lettered] == lettered
    _assert_gap_free(enum, table)
