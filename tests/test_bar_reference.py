"""The bars against a plain assembly, the natively assembled duals, of
which the bars are the signed transposes, against that assembly's signed
transposes, the bars' two StructuralErrors (raised by the dims and the
duals too), dims-only answers that never read a matrix as Fractions and
eliminate only from a smaller low end, and dims-only (cleared) ranks and
dims against the plain ones on every complex built here.

The reference boundaries below are written from the formulas in the
docstrings of koszul.bar, word by word in field arithmetic through
spec.degree, diff and mult, and assembled by complex_from_labels.  Every
differential of the bar must have exactly their entries,
scalar types included: with sums of residues that wrap to zero mod p, and
with regular modules on both sides.  The bars' bases are checked against
a brute-force listing of every word of each degree.
"""

from fractions import Fraction

import pytest

from koszul import bar as bars
from koszul.bar import bar_complex, bar_homology_dims, derived_tensor_dims, two_sided_bar
from koszul.dga import (
    DgAlgebraSpec, algebra_slice, finite_dga_from_tables, free_assoc,
    square_zero, tensor_algebra, truncated_polynomial,
)
from koszul.dgmod import DgModuleSpec, regular_module, trivial_module
from koszul.dual import dual_cohomology_dims, koszul_dual_slice
from koszul.exactla import (
    QQ, CochainComplexSlice, Field, InvalidComplexError, SpanTracker, SparseMatrix,
    StructuralError, Window, complex_from_labels,
)

from matrix_reference import key, transpose

F5, F32003 = Field(5), Field(32003)


def _sign(field, k):
    return field.one if k % 2 == 0 else field.neg(field.one)


def _word_boundary(spec, word, e):
    """d[a_1|..|a_w] = - sum_i (-1)^{e_i} [..|da_i|..]
                       + sum_{i<w} (-1)^{e_i + |a_i|} [..|a_i a_{i+1}|..],
    e_i = e + sum_{j<i} (|a_j| - 1); returns the terms and e_w."""
    field = spec.field
    terms = []
    for i, a in enumerate(word):
        for m, c in spec.diff(a).items():
            terms.append((word[:i] + (m,) + word[i + 1:],
                          field.mul(field.neg(_sign(field, e)), c)))
        if i + 1 < len(word):
            for m, c in spec.mult(a, word[i + 1]).items():
                terms.append((word[:i] + (m,) + word[i + 2:],
                              field.mul(_sign(field, e + spec.degree(a)), c)))
        e += spec.degree(a) - 1
    return terms, e


def _two_sided_boundary(left, spec, right, label):
    """d(m; A; n) = (dm; A; n) + (m; dA; n) + (-1)^{P_w} (m; A; dn)
                    - (-1)^{|m|} (m.a_1; a_2..; n)
                    + (-1)^{P_{w-1}} (m; a_1..a_{w-1}; a_w.n)."""
    field = spec.field
    m, word, n = label
    terms = [((mm, word, n), c) for mm, c in left.diff(m).items()]
    inner, p_last = _word_boundary(spec, word, left.degree(m))
    terms += [((m, w, n), c) for w, c in inner]
    terms += [((m, word, nn), field.mul(_sign(field, p_last), c))
              for nn, c in right.diff(n).items()]
    if word:
        terms += [((mm, word[1:], n), field.mul(field.neg(_sign(field, left.degree(m))), c))
                  for mm, c in left.right_act(m, word[0]).items()]
        p_prev = p_last - (spec.degree(word[-1]) - 1)
        terms += [((m, word[:-1], nn), field.mul(_sign(field, p_prev), c))
                  for nn, c in right.left_act(word[-1], n).items()]
    return terms


def _reference_bar(spec, built):
    """The plain assembly on the padded window and basis of built, a
    BarSlice or a bar's _Chains."""
    return complex_from_labels(spec.field, built.padded, built.basis,
                               lambda word: _word_boundary(spec, word, 0)[0])


def _reference_two_sided(left, spec, right, built):
    return complex_from_labels(spec.field, built.padded, built.basis,
                               lambda label: _two_sided_boundary(left, spec, right, label))


def _assert_same_complex(built, reference):
    field = built.field
    scalar = Fraction if field.p is None else int
    assert built.basis == reference.basis
    assert built.diff.keys() == reference.diff.keys()
    for d, m in built.diff.items():
        ref = reference.diff[d]
        assert m.entries == ref.entries
        assert all(type(x) is scalar for x in m.entries.values())
        assert key(m) == key(ref)


def _assert_clearing_agrees(c):
    """The dims-only path's cleared ranks are the plain ranks, and its dims
    are the representatives path's."""
    window = c.window
    dims_only = c.cohomology(representatives=False)
    assert dims_only.ranks == {d: c.d_at(d).rank() for d in range(window.lo, window.hi)}
    assert dims_only.dims == c.cohomology().dims


# -- algebras -----------------------------------------------------------------


def _scaled_cubic(field, c):
    one = field.one
    mult = {("1", "1"): {"1": one}, ("1", "x"): {"x": one}, ("x", "1"): {"x": one},
            ("1", "y"): {"y": one}, ("y", "1"): {"y": one}, ("x", "x"): {"y": c}}
    return finite_dga_from_tables(
        field, Window(0, 0), {0: ("1", "x", "y")}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True).as_spec()


def _cone(field, c):
    """k{1, x, t}, |t| = -1, dt = c.x and every product of x and t zero: a
    connective algebra whose letters have a differential."""
    one = field.one
    mult = {("1", l): {l: one} for l in ("1", "x", "t")}
    mult.update({(l, "1"): {l: one} for l in ("x", "t")})
    return finite_dga_from_tables(
        field, Window(-1, 0), {-1: ("t",), 0: ("1", "x")}, diff={"t": {"x": c}},
        mult_table=mult, unit="1", aug={"1": one}, complete=True).as_spec()


def _odd_cone(field, c):
    """k{1, x, t}, |x| = -1, |t| = -2, dt = c.x and every product of x and
    t zero: its regular module has a differential landing in an odd
    degree."""
    one = field.one
    mult = {("1", l): {l: one} for l in ("1", "x", "t")}
    mult.update({(l, "1"): {l: one} for l in ("x", "t")})
    return finite_dga_from_tables(
        field, Window(-2, 0), {-2: ("t",), -1: ("x",), 0: ("1",)}, diff={"t": {"x": c}},
        mult_table=mult, unit="1", aug={"1": one}, complete=True).as_spec()


def _exterior2(field):
    one = algebra_slice(truncated_polynomial(field, 2, 0), Window(0, 0))
    return tensor_algebra(one, one).as_spec()


def _rebased_cubic(field):
    """k[x]/x^3 on the basis 1, u = x, v = x + x^2, where u*u = v - u: a
    merge of two degree-0 letters has a term on the first one, so the
    merge and the tail's terms of [u|u|..] hit the same words and cancel
    (over F_p as residues adding up to p)."""
    one, neg = field.one, field.neg(field.one)
    mult = {("1", l): {l: one} for l in ("1", "u", "v")}
    mult.update({(l, "1"): {l: one} for l in ("u", "v")})
    mult.update({(a, b): {"v": one, "u": neg} for a in "uv" for b in "uv"})
    return finite_dga_from_tables(
        field, Window(0, 0), {0: ("1", "u", "v")}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True).as_spec()


def _bidual_inner_spec(spec, window):
    """The dual-as-spec that bidual_cohomology(spec, window) feeds to the
    outer bar."""
    outer_bar_window = window.mirrored().padded()
    inner = koszul_dual_slice(spec, Window(-2, max(3, outer_bar_window.hi + 2)))
    return inner.as_spec()


BARS = [
    pytest.param(lambda: truncated_polynomial(QQ, 3, 0), Window(-7, 0), id="cubic-Q"),
    pytest.param(lambda: truncated_polynomial(F32003, 3, 0), Window(-7, 0), id="cubic-F32003"),
    pytest.param(lambda: _scaled_cubic(QQ, Fraction(2, 3)), Window(-6, 0), id="scaled-2-over-3"),
    pytest.param(lambda: _scaled_cubic(QQ, Fraction(3, 2)), Window(-6, 0), id="scaled-3-over-2"),
    pytest.param(lambda: _cone(QQ, Fraction(-2, 3)), Window(-5, 0), id="cone-Q"),
    pytest.param(lambda: _cone(F32003, 5), Window(-5, 0), id="cone-F32003"),
    pytest.param(lambda: square_zero(QQ, 1), Window(-6, 0), id="square-zero-1"),
    pytest.param(lambda: square_zero(QQ, 2), Window(-8, 0), id="square-zero-2"),
    pytest.param(lambda: _exterior2(QQ), Window(-5, 0), id="exterior-2"),
    pytest.param(lambda: free_assoc(QQ, [("u", 2)]), Window(-1, 6), id="free-u2"),
    pytest.param(lambda: free_assoc(QQ, [("u", 2), ("v", 3)]), Window(-1, 5), id="free-u2-v3"),
    pytest.param(lambda: _bidual_inner_spec(square_zero(QQ, 2), Window(-6, 1)),
                 Window(-1, 6), id="bidual-inner-dual"),
    pytest.param(lambda: _rebased_cubic(QQ), Window(-6, 0), id="rebased-Q"),
    pytest.param(lambda: _rebased_cubic(F5), Window(-6, 0), id="rebased-F5"),
]


@pytest.mark.parametrize("make, window", BARS)
def test_bar_matches_the_plain_assembly(make, window):
    spec = make()
    built = bar_complex(spec, window)
    _assert_same_complex(built.complex, _reference_bar(spec, built))


def _assert_segment_d_is_the_assembly(chains):
    """_segment_d's terms on each chain of an assembled degree, summed by
    row (mod p over F_p), are the built bar's column entry for entry, at
    the letter table's scale: the certificate and the error walk read d
    with the assembly's signs."""
    p = chains.spec.field.p
    built = bars._bar_slice(chains).complex
    for d, labels in chains.basis.items():
        if labels and d + 1 in chains.padded:
            m = built.d_at(d)
            factor = chains.scale // m.scale
            rows = {label: i for i, label in enumerate(chains.basis[d + 1])}
            for label, column in zip(labels, m.int_columns):
                summed = {}
                for term, c in chains.table._segment_d(*chains.segment(label)):
                    row = rows[chains.label(term)]
                    summed[row] = summed.get(row, 0) + c
                assert {i: x % p if p else x for i, x in summed.items()
                        if (x % p if p else x)} == {i: x * factor for i, x in column.items()}


@pytest.mark.parametrize("make, window", BARS)
def test_segment_d_sums_to_the_bar_columns(make, window):
    _assert_segment_d_is_the_assembly(bars._reduced(make(), window))


@pytest.mark.parametrize("make, window", BARS)
def test_clearing_agrees_on_the_bar_and_its_dual(make, window):
    spec = make()
    _assert_clearing_agrees(bar_complex(spec, window).complex)
    _assert_clearing_agrees(koszul_dual_slice(spec, window.mirrored()).algebra.complex())


def _wrapping_sums(spec, built, boundary):
    """How many columns of the plain assembly sum repeated terms to a
    nonzero multiple of p, as residues in [0, p)."""
    p = spec.field.p
    count = 0
    for labels in built.basis.values():
        for label in labels:
            sums = {}
            for term, c in boundary(label):
                sums.setdefault(term, []).append(c)
            count += any(len(cs) > 1 and sum(cs) and sum(cs) % p == 0 for cs in sums.values())
    return count


def test_f5_sums_that_wrap_to_zero_leave_no_entry():
    spec = _rebased_cubic(F5)
    built = bar_complex(spec, Window(-6, 0))
    assert _wrapping_sums(spec, built, lambda word: _word_boundary(spec, word, 0)[0])
    assert all(x for m in built.complex.diff.values() for col in m.int_columns
               for x in col.values())
    _assert_same_complex(built.complex, _reference_bar(spec, built))
    _assert_clearing_agrees(built.complex)
    reg = regular_module(spec)
    two = two_sided_bar(reg, spec, reg, Window(-3, 1))
    assert _wrapping_sums(spec, two, lambda label: _two_sided_boundary(reg, spec, reg, label))
    _assert_same_complex(two.complex, _reference_two_sided(reg, spec, reg, two))
    _assert_clearing_agrees(two.complex)


TWO_SIDED = [
    pytest.param(lambda: square_zero(QQ, 1), "k", "k", Window(-4, 0), id="k-sq1-k"),
    pytest.param(lambda: _scaled_cubic(QQ, Fraction(2, 3)), "k", "k", Window(-5, 0),
                 id="k-scaled-k"),
    pytest.param(lambda: square_zero(QQ, 1), "k", "reg", Window(-3, 1), id="k-sq1-reg"),
    pytest.param(lambda: square_zero(QQ, 1), "reg", "k", Window(-3, 1), id="reg-sq1-k"),
    pytest.param(lambda: _scaled_cubic(QQ, Fraction(3, 2)), "reg", "reg", Window(-3, 1),
                 id="reg-scaled-reg"),
    pytest.param(lambda: _cone(QQ, Fraction(2, 3)), "reg", "reg", Window(-3, 1),
                 id="reg-cone-reg"),
    pytest.param(lambda: _cone(F32003, 7), "k", "reg", Window(-3, 1), id="k-cone-reg-F32003"),
    pytest.param(lambda: free_assoc(QQ, [("u", 2)]), "k", "k", Window(-1, 4), id="k-u2-k"),
    pytest.param(lambda: truncated_polynomial(F32003, 3, 0), "reg", "reg", Window(-4, 1),
                 id="reg-cubic-reg-F32003"),
    pytest.param(lambda: _rebased_cubic(F5), "reg", "reg", Window(-3, 1), id="reg-rebased-reg-F5"),
    # modules that span several degrees, where (|m|, m, chain) is the listing order
    pytest.param(lambda: square_zero(QQ, 1), "reg", "reg", Window(-3, 1), id="reg-sq1-reg"),
    pytest.param(lambda: square_zero(F5, 1), "reg", "reg", Window(-4, 1), id="reg-sq1-reg-F5"),
    pytest.param(lambda: free_assoc(QQ, [("u", 2)]), "reg", "reg", Window(-1, 6), id="reg-u2-reg"),
    pytest.param(lambda: free_assoc(QQ, [("u", 2), ("v", 3)]), "reg", "k", Window(0, 7),
                 id="reg-u2-v3-k"),
]


@pytest.mark.parametrize("make, left, right, window", TWO_SIDED)
def test_two_sided_bar_matches_the_plain_assembly(make, left, right, window):
    spec = make()
    modules = {"k": trivial_module(spec), "reg": regular_module(spec)}
    lm, rm = modules[left], modules[right]
    built = two_sided_bar(lm, spec, rm, window)
    _assert_same_complex(built.complex, _reference_two_sided(lm, spec, rm, built))
    _assert_clearing_agrees(built.complex)


@pytest.mark.parametrize("make, left, right, window", TWO_SIDED)
def test_segment_d_sums_to_the_two_sided_bar_columns(make, left, right, window):
    spec = make()
    modules = {"k": trivial_module(spec), "reg": regular_module(spec)}
    _assert_segment_d_is_the_assembly(bars._two_sided(modules[left], spec, modules[right], window))


# -- the dual, assembled natively ------------------------------------------------


def _assert_native_is_the_signed_transpose(chains):
    """The dual that _cobar_slice assembles from the letter table is the
    signed transpose of the plain assembly (_reference_bar,
    _reference_two_sided), d_e = (-1)^e (bar d_{-e-1})^T: the same basis,
    scale and integer columns (in [1, p) over F_p), and certified
    ("transpose") exactly where the letter table is.  The bar is built
    from the dual, so it is no second assembly to check the dual by; it
    goes through the module, so the suite's guard checks the certified
    ones."""
    native = bars._cobar_slice(chains)
    spec = chains.spec
    reference = _reference_bar(spec, chains) if chains.left is None \
        else _reference_two_sided(chains.left, spec, chains.right, chains)
    assert native.window == reference.window.mirrored()
    assert native.basis == {-d: words for d, words in reference.basis.items()}
    p = spec.field.p

    def signed(m, negate):
        cols = [{i: (p - x if p else -x) if negate else x for i, x in col.items()}
                for col in m.int_columns]
        return SparseMatrix.from_int_columns(m.field, m.rows, cols, m.scale)

    assert {e: key(m) for e, m in native.diff.items()} \
        == {-d - 1: key(signed(transpose(m), d % 2 == 0)) for d, m in reference.diff.items()}
    assert all(x and (p is None or 0 < x < p)
               for m in native.diff.values() for col in m.int_columns for x in col.values())
    assert native.certified_by == ("transpose" if chains.certified else None)
    built = bars._bar_slice(chains).complex
    assert built.certified_by == ("letters" if chains.certified else None)


@pytest.mark.parametrize("make, window", BARS + [
    pytest.param(lambda: _non_associative(), Window(-4, 0), id="non-associative")])
def test_the_native_dual_is_the_signed_transpose_of_the_bar(make, window):
    chains = bars._reduced(make(), window)
    _assert_native_is_the_signed_transpose(chains)
    assert chains.certified == (chains.spec.name != "non-associative")


NATIVE_TWO_SIDED = [
    pytest.param(lambda f: truncated_polynomial(f, 3, 0), Window(-4, 1), id="cubic"),
    pytest.param(lambda f: _cone(f, f.of_int(2)), Window(-3, 1), id="cone"),
    pytest.param(lambda f: _odd_cone(f, f.of_int(3)), Window(-4, 1), id="odd-cone"),
    pytest.param(lambda f: square_zero(f, 1), Window(-4, 1), id="sq1"),
    pytest.param(lambda f: free_assoc(f, [("u", 2)]), Window(-1, 5), id="u2"),
    pytest.param(_rebased_cubic, Window(-3, 1), id="rebased"),
]


@pytest.mark.parametrize("left, right", [("k", "k"), ("k", "reg"), ("reg", "k"), ("reg", "reg")])
@pytest.mark.parametrize("field", [QQ, F5, F32003], ids=["Q", "F5", "F32003"])
@pytest.mark.parametrize("make, window", NATIVE_TWO_SIDED)
def test_the_native_dual_of_the_two_sided_bar_is_its_signed_transpose(
        make, window, field, left, right):
    spec = make(field)
    modules = {"k": trivial_module(spec), "reg": regular_module(spec)}
    chains = bars._two_sided(modules[left], spec, modules[right], window)
    _assert_native_is_the_signed_transpose(chains)
    dims = bars._bar_slice(chains).homology_dims()
    assert derived_tensor_dims(modules[left], spec, modules[right], window) == dims


@pytest.mark.parametrize("left, right", [("k", "k"), ("k", "reg"), ("reg", "k"), ("reg", "reg")])
@pytest.mark.parametrize("field", [QQ, F5, F32003], ids=["Q", "F5", "F32003"])
@pytest.mark.parametrize("make, window", NATIVE_TWO_SIDED)
def test_segment_d_sums_to_the_columns_of_every_two_sided_bar(make, window, field, left, right):
    spec = make(field)
    modules = {"k": trivial_module(spec), "reg": regular_module(spec)}
    _assert_segment_d_is_the_assembly(bars._two_sided(modules[left], spec, modules[right], window))


# -- no truncation: every chain of each degree is listed ---------------------------


def _words_by_degree(spec, lo, hi):
    """Every word of the reduced bar whose degree (the sum of its letters'
    shifted degrees) lies in [lo, hi], as sets by degree, over the letters
    of degrees -12 to 12.  The letters all shift the same way and none by
    0, so a prefix past the window on that side stays past it and is
    dropped, and the search ends."""
    letters = [(l, e - 1) for e in range(-12, 13) for l in spec.basis(e) if l != spec.unit]
    down = all(s < 0 for _, s in letters)
    assert down or all(s > 0 for _, s in letters)
    found, stack = {}, [((), 0)]
    while stack:
        word, e = stack.pop()
        if lo <= e <= hi:
            found.setdefault(e, set()).add(word)
        stack += [(word + (l,), e + s) for l, s in letters
                  if (e + s >= lo if down else e + s <= hi)]
    return found


def _assert_lists(built, expected):
    """built lists each degree's expected labels once each, and no others."""
    for d, labels in built.basis.items():
        assert len(set(labels)) == len(labels)
        assert set(labels) == expected.get(d, set()), d


NO_TRUNCATION = [
    pytest.param(lambda: truncated_polynomial(QQ, 3, 0), Window(-5, 0), id="cubic-Q"),
    pytest.param(lambda: _cone(QQ, Fraction(2, 3)), Window(-4, 0), id="cone-Q"),
    pytest.param(lambda: square_zero(F5, 2), Window(-7, 1), id="square-zero-2-F5"),
    pytest.param(lambda: _rebased_cubic(F5), Window(-4, 0), id="rebased-F5"),
    pytest.param(lambda: free_assoc(QQ, [("u", 2)]), Window(-1, 6), id="free-u2"),
    pytest.param(lambda: free_assoc(QQ, [("u", 2), ("v", 3)]), Window(-1, 5), id="free-u2-v3"),
]


@pytest.mark.parametrize("make, window", NO_TRUNCATION)
def test_the_bar_lists_every_word_of_each_degree(make, window):
    spec = make()
    built = bar_complex(spec, window)
    padded = built.padded
    _assert_lists(built, _words_by_degree(spec, padded.lo, padded.hi))
    assert max(len(word) for words in built.basis.values() for word in words) \
        <= built.max_weight


@pytest.mark.parametrize("left, right", [("k", "k"), ("k", "reg"), ("reg", "k"), ("reg", "reg")])
@pytest.mark.parametrize("make, window", NO_TRUNCATION)
def test_the_two_sided_bar_lists_every_chain_of_each_degree(make, window, left, right):
    spec = make()
    modules = {"k": trivial_module(spec), "reg": regular_module(spec)}
    lm, rm = modules[left], modules[right]
    built = two_sided_bar(lm, spec, rm, window)
    padded = built.padded
    expected = {}
    for dm in range(-12, 13):
        for dn in range(-12, 13):
            pairs = [(m, n) for m in lm.basis(dm) for n in rm.basis(dn)]
            if not pairs:
                continue
            shift = dm + dn
            words = _words_by_degree(spec, padded.lo - shift, padded.hi - shift)
            for e, ws in words.items():
                expected.setdefault(e + shift, set()).update(
                    (m, w, n) for m, n in pairs for w in ws)
    _assert_lists(built, expected)
    assert max(len(w) for labels in built.basis.values() for _, w, _ in labels) \
        <= built.max_weight


def test_two_sided_listing_order():
    # degree d lists (m; c) by (|m|, m, c), c a chain [a_1|..|a_w; n] of
    # degree d - |m| in the chain order: its base elements n, then its
    # blocks by first letter.  Here M and N both span degrees -1 and 0.
    sq1 = square_zero(QQ, 1)
    reg = regular_module(sq1)
    built = two_sided_bar(reg, sq1, reg, Window(-1, 0))
    assert built.basis[-2] == (("e", (), "e"), ("1", ("e",), "1"))
    # M spans degrees 0 to 8, N = k: each m holds the reduced bar's words
    # of degree d - |m|, in their order
    spec = free_assoc(QQ, [("u", 2), ("v", 3)])
    reg = regular_module(spec)
    built = two_sided_bar(reg, spec, trivial_module(spec), Window(0, 7))
    words = bar_complex(spec, Window(0, 7)).basis
    assert built.basis == {d: tuple((m, w, "[]") for dm in range(d + 1) for m in reg.basis(dm)
                                    for w in words.get(d - dm, ()))
                           for d in built.basis}
    # M and N in one degree: m, then the word, then n
    cubic = truncated_polynomial(QQ, 3, 0)
    reg = regular_module(cubic)
    built = two_sided_bar(reg, cubic, reg, Window(-4, 0))
    words = bar_complex(cubic, Window(-4, 0)).basis
    assert built.basis == {d: tuple((m, w, n) for m in reg.basis(0) for w in words[d]
                                    for n in reg.basis(0))
                           for d in words}


def _shifted_k(spec, n):
    """k in degree n, acting on both sides through the augmentation."""
    field = spec.field

    def act(a):
        c = spec.aug(a)
        return {} if field.is_zero(c) else {"s": c}

    return DgModuleSpec(
        field, f"k[{n}]", spec, "bi", basis=lambda d: ("s",) if d == n else (),
        degree=lambda l: n, diff=lambda l: {}, left_act=lambda a, m: act(a),
        right_act=lambda m, a: act(a), min_degree=n, max_degree=n)


@pytest.mark.parametrize("make, window, n", [
    pytest.param(lambda: truncated_polynomial(QQ, 3, 0), Window(-1, 0), 2, id="cubic-up-2"),
    pytest.param(lambda: _cone(QQ, Fraction(2, 3)), Window(-4, 0), 3, id="cone-up-3"),
    pytest.param(lambda: free_assoc(QQ, [("u", 2), ("v", 3)]), Window(-1, 5), -2,
                 id="u2-v3-down-2"),
    # the letter u (degree 5) lies above the padded window [-3, -1], but
    # [u; s] has degree -1 there
    pytest.param(lambda: free_assoc(QQ, [("u", 5)]), Window(4, 4), -6, id="u5-down-6"),
])
def test_a_base_in_degree_n_shifts_the_two_sided_bar_by_n(make, window, n):
    # B(k, A, k[n]) is B(k, A, k) moved up by n, matrix by matrix: the
    # chains' letters, and so the weight cap and the merges tabled, depend
    # on where the base module lies
    spec = make()
    k = trivial_module(spec)
    plain = two_sided_bar(k, spec, k, window)
    moved = two_sided_bar(k, spec, _shifted_k(spec, n), Window(window.lo + n, window.hi + n))
    assert moved.max_weight == plain.max_weight
    assert moved.basis == {d + n: tuple((m, w, "s") for m, w, _ in labels)
                           for d, labels in plain.basis.items()}
    assert {d: key(m) for d, m in moved.complex.diff.items()} \
        == {d + n: key(m) for d, m in plain.complex.diff.items()}
    _assert_clearing_agrees(moved.complex)


# -- the bars' StructuralErrors -------------------------------------------------


def _every_answer_raises(message, spec, window, left=None, right=None):
    """The bar on window, its dims and the dual on the mirrored window (or
    B(left, spec, right) and its dims) all raise the bar's StructuralError:
    where a column the bar assembles has an error, the dims and the dual
    walk the bar's chains for it, as the bar does."""
    if left is None:
        calls = (lambda: bar_complex(spec, window), lambda: bar_homology_dims(spec, window),
                 lambda: koszul_dual_slice(spec, window.mirrored()))
    else:
        calls = (lambda: two_sided_bar(left, spec, right, window),
                 lambda: derived_tensor_dims(left, spec, right, window))
    for call in calls:
        with pytest.raises(StructuralError, match=message):
            call()


def _bad_square(product):
    """1 and one letter u in degree 3 (shifted degree 2), with u*u = product:
    the word [u|u] first sits in a source of the differential when degree
    5 is in the padded window."""
    one = QQ.one

    def mult(a, b):
        if a == "1":
            return {b: one}
        if b == "1":
            return {a: one}
        return product

    return DgAlgebraSpec(
        QQ, "bad", basis=lambda d: {0: ("1",), 3: ("u",)}.get(d, ()),
        degree=lambda l: 0 if l == "1" else 3, diff=lambda l: {}, mult=mult,
        unit="1", aug=lambda l: one if l == "1" else QQ.zero,
        min_degree=0, max_degree=3)


@pytest.mark.parametrize("product, message", [
    ({"1": QQ.one}, r"merge 'u'\*'u' leaves the augmentation ideal"),
    ({"z": QQ.one}, r"d\(\('u', 'u'\)\) has term \('z',\) outside the degree 5 basis"),
])
def test_bad_merges_are_reported_only_where_a_column_uses_them(product, message):
    spec = _bad_square(product)
    # on [0, 3] the word [u|u] sits in degree 4 = the padded top, which no
    # assembled differential leaves
    assert bar_complex(spec, Window(0, 3)).homology_dims() == {0: 1, 1: 0, 2: 1, 3: 0}
    assert bar_homology_dims(spec, Window(0, 3)) == {0: 1, 1: 0, 2: 1, 3: 0}
    assert dual_cohomology_dims(spec, Window(-3, 0)) == {0: 1, -1: 0, -2: 1, -3: 0}
    _every_answer_raises(message, spec, Window(0, 4))


def _unit_square():
    """k + k.e with |e| = -2 and e*e = 1: the merge e*e fails, and the word
    [e|e] sits in degree -6, [e|e|e] in degree -9."""
    one = QQ.one

    def mult(a, b):
        if a == "1":
            return {b: one}
        return {a: one} if b == "1" else {"1": one}

    return DgAlgebraSpec(
        QQ, "unit square", basis=lambda d: {0: ("1",), -2: ("e",)}.get(d, ()),
        degree=lambda l: 0 if l == "1" else -2, diff=lambda l: {}, mult=mult,
        unit="1", aug=lambda l: one if l == "1" else QQ.zero, min_degree=-2, max_degree=0)


def test_a_flagged_entry_that_no_column_uses_is_not_raised():
    """The table flags e*e on these windows, as a column of a degree in
    the padded window could hold [e|e], but no chain of a degree whose
    differential is assembled holds it: on [-7, -7] the padded window
    [-8, -6] holds [e|e] only in its top, and on [-10, -10] [e|e|e] sits
    in the top of [-11, -9].  The walk of the chains finds no error, and
    every answer is 0.  On [-8, -5] the column of [e|e] uses e*e."""
    spec = _unit_square()
    for window in (Window(-7, -7), Window(-10, -10)):
        assert bars._reduced(spec, window).table.cotables()
        assert bar_complex(spec, window).homology_dims() == {window.lo: 0}
        assert bar_homology_dims(spec, window) == {window.lo: 0}
        assert dual_cohomology_dims(spec, window.mirrored()) == {-window.lo: 0}
    _every_answer_raises(r"merge 'e'\*'e' leaves the augmentation ideal", spec, Window(-8, -5))


def test_bad_merge_is_reported_by_the_two_sided_bar():
    spec = _bad_square({"1": QQ.one})
    k = trivial_module(spec)
    assert two_sided_bar(k, spec, k, Window(0, 3)).homology_dims()[2] == 1
    assert derived_tensor_dims(k, spec, k, Window(0, 3))[2] == 1
    _every_answer_raises("leaves the augmentation ideal", spec, Window(0, 4), k, k)


def _behind_a_harmless_letter(product, du=None):
    """1, h in degree 3 and u in degree 4 (shifted degrees 2 and 3), every
    product of letters zero but u*u = product, and du the differential of
    u: [u|u] sits in degree 6, and in degree 8 the first word holding it is
    [h|u|u], where it is the tail's merge."""
    one = QQ.one
    basis = {0: ("1",), 3: ("h",), 4: ("u",)}

    def mult(a, b):
        if a == "1":
            return {b: one}
        if b == "1":
            return {a: one}
        return product if a == b == "u" else {}

    return DgAlgebraSpec(
        QQ, "behind", basis=lambda d: basis.get(d, ()),
        degree={"1": 0, "h": 3, "u": 4}.__getitem__,
        diff=lambda l: (du or {}) if l == "u" else {}, mult=mult,
        unit="1", aug=lambda l: one if l == "1" else QQ.zero, min_degree=0, max_degree=4)


@pytest.mark.parametrize("product, message, two_sided_message", [
    ({"1": QQ.one}, r"merge 'u'\*'u' leaves the augmentation ideal",
     r"merge 'u'\*'u' leaves the augmentation ideal"),
    ({"z": QQ.one}, r"d\(\('h', 'u', 'u'\)\) has term \('h', 'z'\) outside the degree 9 basis",
     r"d\(\('\[\]', \('h', 'u', 'u'\), '\[\]'\)\) has term "
     r"\('\[\]', \('h', 'z'\), '\[\]'\) outside the degree 9 basis"),
], ids=["failing-merge", "term-outside"])
def test_bad_merge_behind_a_harmless_first_letter(product, message, two_sided_message):
    spec = _behind_a_harmless_letter(product)
    k = trivial_module(spec)
    # on [0, 5] [u|u] sits in the padded top degree 6, which no assembled
    # differential leaves; every differential there is zero
    dims = {0: 1, 1: 0, 2: 1, 3: 1, 4: 1, 5: 2}
    assert bar_complex(spec, Window(0, 5)).homology_dims() == dims
    assert two_sided_bar(k, spec, k, Window(0, 5)).homology_dims() == dims
    assert bar_homology_dims(spec, Window(0, 5)) == dims
    assert derived_tensor_dims(k, spec, k, Window(0, 5)) == dims
    # on [8, 9] degree 6 is not assembled but [h|u|u] is
    _every_answer_raises(message, spec, Window(8, 9))
    _every_answer_raises(two_sided_message, spec, Window(8, 9), k, k)


@pytest.mark.parametrize("window, message", [
    (Window(0, 3), r"d\(\('u',\)\) has term \('q',\) outside the degree 4 basis"),
    (Window(5, 6), r"d\(\('h', 'u'\)\) has term \('h', 'q'\) outside the degree 6 basis"),
], ids=["first-letter", "behind-a-harmless-letter"])
def test_letter_differential_outside_the_basis_names_the_whole_word(window, message):
    spec = _behind_a_harmless_letter({}, du={"q": QQ.one})
    _every_answer_raises(message, spec, window)


def test_the_leftmost_failing_product_is_raised():
    """A = k{1, v, u} in degree 0 with v*v = 1 and every other product of
    letters zero, and M = k.m with m.v failing: the column (m; [v|v]; n)
    uses both failing products, and raises m.v, the leftmost one."""
    one = QQ.one

    def mult(a, b):
        if a == "1":
            return {b: one}
        if b == "1":
            return {a: one}
        return {"1": one} if a == b == "v" else {}

    spec = DgAlgebraSpec(
        QQ, "vv", basis=lambda d: ("1", "v", "u") if d == 0 else (), degree=lambda l: 0,
        diff=lambda l: {}, mult=mult, unit="1", aug=lambda l: one if l == "1" else QQ.zero,
        min_degree=0, max_degree=0)

    def act(m, a):
        if a == "v":
            raise StructuralError("m.v is undefined")
        return {m: one} if a == "1" else {}

    left = DgModuleSpec(
        QQ, "m", spec, "right", basis=lambda d: ("m",) if d == 0 else (),
        degree=lambda l: 0, diff=lambda l: {}, right_act=act, min_degree=0, max_degree=0)
    _every_answer_raises(r"merge 'v'\*'v' leaves the augmentation ideal", spec, Window(-1, 0))
    _every_answer_raises(r"m\.v is undefined", spec, Window(-1, 0), left, trivial_module(spec))


def test_missing_module_action_is_reported_only_where_a_column_uses_it():
    spec = square_zero(QQ, 1)
    left_only = DgModuleSpec(
        QQ, "k_left", spec, "left", basis=lambda d: ("[]",) if d == 0 else (),
        degree=lambda l: 0, diff=lambda l: {},
        left_act=lambda a, m: {m: spec.aug(a)} if spec.aug(a) else {},
        min_degree=0, max_degree=0)
    k = trivial_module(spec)
    # the chains of degrees -1 to 1 hold no letter ([e] has degree -2), so
    # no column multiplies m by a letter
    assert two_sided_bar(left_only, spec, k, Window(0, 0)).homology_dims() == {0: 1}
    assert derived_tensor_dims(left_only, spec, k, Window(0, 0)) == {0: 1}
    _every_answer_raises("has no right action", spec, Window(-1, 0), left_only, k)
    right_only = DgModuleSpec(
        QQ, "k_right", spec, "right", basis=lambda d: ("[]",) if d == 0 else (),
        degree=lambda l: 0, diff=lambda l: {},
        right_act=lambda m, a: {m: spec.aug(a)} if spec.aug(a) else {},
        min_degree=0, max_degree=0)
    assert two_sided_bar(k, spec, right_only, Window(0, 0)).homology_dims() == {0: 1}
    assert derived_tensor_dims(k, spec, right_only, Window(0, 0)) == {0: 1}
    _every_answer_raises("has no left action", spec, Window(-1, 0), k, right_only)


def test_module_term_outside_the_basis_is_named_with_its_word():
    spec = square_zero(QQ, 1)
    bogus = DgModuleSpec(
        QQ, "bogus", spec, "bi", basis=lambda d: ("[]",) if d == 0 else (),
        degree=lambda l: 0, diff=lambda l: {"?": QQ.one},
        left_act=lambda a, m: {}, right_act=lambda m, a: {}, min_degree=0, max_degree=0)
    k = trivial_module(spec)
    # on [-1, 1] the chains hold no letter: the first column is the empty
    # word's, in degree 0
    _every_answer_raises(r"d\(\('\[\]', \(\), '\[\]'\)\) has term "
                         r"\('\?', \(\), '\[\]'\) outside the degree 1 basis",
                         spec, Window(0, 0), bogus, k)
    # the same differential on the right: the term of the bare chain's dn
    _every_answer_raises(r"d\(\('\[\]', \(\), '\[\]'\)\) has term "
                         r"\('\[\]', \(\), '\?'\) outside the degree 1 basis",
                         spec, Window(0, 0), k, bogus)
    # an action outside the basis: e.n is the head term of [e; n]
    acting = DgModuleSpec(
        QQ, "acting", spec, "left", basis=lambda d: ("[]",) if d == 0 else (),
        degree=lambda l: 0, diff=lambda l: {}, left_act=lambda a, m: {"?": QQ.one},
        min_degree=0, max_degree=0)
    _every_answer_raises(r"d\(\('\[\]', \('e',\), '\[\]'\)\) has term "
                         r"\('\[\]', \(\), '\?'\) outside the degree -1 basis",
                         spec, Window(-1, 0), k, acting)


def test_right_action_outside_the_basis_is_named_with_its_word():
    """m.e is the head term of (m; [e]; n) that drops the letter e, so a
    right action outside M's basis is named by its whole (m, word, n) label."""
    spec = square_zero(QQ, 1)
    acting = DgModuleSpec(
        QQ, "acting", spec, "right", basis=lambda d: ("[]",) if d == 0 else (),
        degree=lambda l: 0, diff=lambda l: {}, right_act=lambda m, a: {"?": QQ.one},
        min_degree=0, max_degree=0)
    _every_answer_raises(r"d\(\('\[\]', \('e',\), '\[\]'\)\) has term "
                         r"\('\?', \(\), '\[\]'\) outside the degree -1 basis",
                         spec, Window(-1, 0), acting, trivial_module(spec))


# -- dims only, in ints -----------------------------------------------------------


def test_dims_only_answers_never_build_a_fraction_view(monkeypatch):
    """Bar, dual and derived-tensor dims over Q read only the integer
    columns: assembly, the signed transpose, the d^2 check and the ranks."""
    def refuse(*args):
        raise AssertionError("a matrix was read as Fractions")

    monkeypatch.setattr(SparseMatrix, "entries", property(refuse))
    monkeypatch.setattr(SparseMatrix, "columns", refuse)
    monkeypatch.setattr(SparseMatrix, "column", refuse)
    spec = _scaled_cubic(QQ, Fraction(2, 3))
    assert bar_homology_dims(spec, Window(-8, 0)) == dict.fromkeys(range(-8, 1), 1)
    assert dual_cohomology_dims(spec, Window(0, 8)) == dict.fromkeys(range(9), 1)
    k = trivial_module(spec)
    assert derived_tensor_dims(k, spec, k, Window(-6, 0)) == dict.fromkeys(range(-6, 1), 1)


def test_dims_only_answers_of_certified_bars_eliminate_from_the_smaller_end(monkeypatch):
    """Bar, dual and derived-tensor dims of certified bars read their ranks
    columns bottom-up from the side whose low end is the smaller: the
    natively assembled dual of a connective algebra's bar, a coconnected
    algebra's bar itself (built as the dual's signed transpose), over Q
    and over F_p, and so does the homology_dims of a bar that a caller
    built: every complex they eliminate starts at its smaller end."""
    cohomology = CochainComplexSlice.cohomology

    def from_the_smaller_end(self, representatives=True):
        assert self.dim(self.window.lo) <= self.dim(self.window.hi), \
            "a complex was eliminated from its larger end"
        return cohomology(self, representatives)

    monkeypatch.setattr(CochainComplexSlice, "cohomology", from_the_smaller_end)
    for spec in (_scaled_cubic(QQ, Fraction(2, 3)), truncated_polynomial(F32003, 3, 0)):
        k = trivial_module(spec)
        assert bar_homology_dims(spec, Window(-8, 0)) == dict.fromkeys(range(-8, 1), 1)
        assert bar_complex(spec, Window(-8, 0)).homology_dims() == dict.fromkeys(range(-8, 1), 1)
        assert dual_cohomology_dims(spec, Window(0, 8)) == dict.fromkeys(range(9), 1)
        assert derived_tensor_dims(k, spec, k, Window(-6, 0)) == dict.fromkeys(range(-6, 1), 1)
        assert two_sided_bar(k, spec, k, Window(-6, 0)).homology_dims() \
            == dict.fromkeys(range(-6, 1), 1)
    exterior = _exterior2(F5)
    assert bar_homology_dims(exterior, Window(-5, 0)) == {-n: n + 1 for n in range(6)}
    # a coconnected algebra: the bar's low end is the smaller, its dual's the larger
    for field in (QQ, F32003):
        free = free_assoc(field, [("u", 2), ("v", 3)])
        k = trivial_module(free)
        tor = {0: 1, 1: 1, 2: 1}
        assert bar_homology_dims(free, Window(0, 8)) == {d: tor.get(d, 0) for d in range(9)}
        assert bar_complex(free, Window(0, 8)).homology_dims() \
            == {d: tor.get(d, 0) for d in range(9)}
        assert dual_cohomology_dims(free, Window(-8, 0)) \
            == {-d: tor.get(d, 0) for d in range(9)}
        assert derived_tensor_dims(k, free, k, Window(0, 6)) == {d: tor.get(d, 0) for d in range(7)}


def test_the_duals_of_error_free_tables_never_build_the_bar(monkeypatch):
    """Reading the letter table by row drops only what no column of the bar
    uses, on error-free tables: a coconnected algebra's products that land
    above the listed letters (the words [a|b] in the padded top, whose
    differential no assembled column takes), and the bad square's u*u on
    [0, 3], where [u|u] sits only there.  So their duals, and a connective
    algebra's dims, are assembled without building the bar."""
    def refuse(*args):
        raise AssertionError("the bar was built")

    monkeypatch.setattr(bars, "_bar_slice", refuse)
    cubic = truncated_polynomial(F32003, 3, 0)
    for left, right in (("k", "k"), ("reg", "k"), ("k", "reg"), ("reg", "reg")):
        modules = {"k": trivial_module(cubic), "reg": regular_module(cubic)}
        derived_tensor_dims(modules[left], cubic, modules[right], Window(-5, 0))
    assert bar_homology_dims(cubic, Window(-8, 0)) == dict.fromkeys(range(-8, 1), 1)
    for spec, window in ((cubic, Window(0, 8)), (free_assoc(QQ, [("u", 2), ("v", 3)]), Window(-8, 0)),
                         (_bad_square({"1": QQ.one}), Window(-3, 0)),
                         (_bad_square({"z": QQ.one}), Window(-3, 0))):
        koszul_dual_slice(spec, window)
    free = free_assoc(F5, [("u", 2), ("v", 3)])
    for left in (trivial_module(free), regular_module(free)):
        assert not bars._two_sided(left, free, regular_module(free), Window(0, 8)).table.cotables()


# -- clearing needs d^2 = 0 first ---------------------------------------------------


def _non_associative():
    """k{1, x, y} in degree 0 with x*x = y, x*y = y and y*x = 0: (xx)x = 0
    but x(xx) = y, so d^2 != 0 on the bar's words of three letters."""
    one = QQ.one
    table = {("x", "x"): {"y": one}, ("x", "y"): {"y": one}}

    def mult(a, b):
        if a == "1":
            return {b: one}
        if b == "1":
            return {a: one}
        return table.get((a, b), {})

    return DgAlgebraSpec(
        QQ, "non-associative", basis=lambda d: ("1", "x", "y") if d == 0 else (),
        degree=lambda l: 0, diff=lambda l: {}, mult=mult, unit="1",
        aug=lambda l: one if l == "1" else QQ.zero, min_degree=0, max_degree=0)


def _failing_degrees(c):
    """The degrees d of c's window from which d_{d+1} d_d != 0."""
    return [d for d in range(c.window.lo, c.window.hi - 1)
            if CochainComplexSlice(c.field, Window(d, d + 2),
                                   {e: c.basis[e] for e in (d, d + 1, d + 2) if e in c.basis},
                                   {d: c.d_at(d), d + 1: c.d_at(d + 1)}).d_squared_failure()]


@pytest.mark.parametrize("dims_only, complex_of, degree", [
    (lambda spec: bar_homology_dims(spec, Window(-4, 0)),
     lambda spec: bar_complex(spec, Window(-4, 0)).complex, -5),
    (lambda spec: derived_tensor_dims(
        trivial_module(spec), spec, trivial_module(spec), Window(-4, 0)),
     lambda spec: two_sided_bar(
        trivial_module(spec), spec, trivial_module(spec), Window(-4, 0)).complex, -5),
    (lambda spec: dual_cohomology_dims(spec, Window(0, 4)),
     lambda spec: koszul_dual_slice(spec, Window(0, 4)).algebra.complex(), 1),
], ids=["bar", "two-sided", "dual"])
def test_d_squared_failure_is_raised_before_any_clearing(
        monkeypatch, dims_only, complex_of, degree):
    """Dims-only and representatives cohomology both clear by the skip of
    `eliminate`; clearing may not run before the d^2 check has named the
    failing degree.  d^2 != 0 from three degrees here, and each answer
    names the one its complex's matrix check names: for the bars the
    lowest bar degree, as a bar whose certificate fails is built itself
    for its dims, and for the dual the lowest degree of its natively
    assembled complex."""
    def refuse(*args):
        raise AssertionError("clearing ran before d^2 = 0 was checked")

    eliminate = SparseMatrix.eliminate

    def eliminate_without_skips(self, track=False, skip=()):
        if skip:
            refuse()
        return eliminate(self, track)

    failing = _failing_degrees(complex_of(_non_associative()))
    assert len(failing) == 3 and failing[0] == degree
    monkeypatch.setattr(SparseMatrix, "eliminate", eliminate_without_skips)
    for answer in (dims_only, lambda spec: complex_of(spec).cohomology()):
        with pytest.raises(InvalidComplexError) as info:
            answer(_non_associative())
        assert info.value.degree == degree


# -- class trackers are seeded with the eliminations' own pivots ------------------


@pytest.mark.parametrize("complex_of, first_leads", [
    pytest.param(lambda: koszul_dual_slice(
        truncated_polynomial(F32003, 3, 0), Window(0, 8)).algebra.complex(), set(),
        id="dual-cubic"),
    pytest.param(lambda: bar_complex(_cone(F32003, 5), Window(-5, 0)).complex, {32003 - 5},
                 id="cone"),
    pytest.param(lambda: bar_complex(_cone(F32003, 1), Window(-5, 0)).complex, {32003 - 1},
                 id="cone-lead-p-1"),
])
def test_class_trackers_are_seeded_with_the_eliminations_pivots(monkeypatch, complex_of, first_leads):
    """Over F_p every pivot is kept as it stands, whatever its lead, and a
    class tracker is seeded with the very vectors of the elimination below
    it, shared, not copied.  A reduction step reads 1/lead from the
    pivot's lead, so a lead that is 0 mod p would make `insert` loop; the
    leads are checked before every insert, so such a change fails here
    and does not hang.  The window's first elimination leaves pivots with
    lead -5 on the cone with c = 5 and with lead p - 1, which is its own
    inverse, with c = 1."""
    c = complex_of()
    p = c.field.p
    first = c.d_at(c.window.lo).eliminate()[0]
    assert {pvec[lead] for lead, (pvec, _) in first.pivots.items()} == first_leads
    insert, eliminate = SpanTracker.insert, SparseMatrix.eliminate
    below = []  # the trackers of cohomology's eliminations, in order

    def recorded_eliminate(self, track=False, skip=()):
        out = eliminate(self, track, skip)
        below.append(out[0])
        return out

    def checked_insert(self, vec, tag=None):
        for lead, (pvec, _) in self.pivots.items():
            assert pvec[lead] % p, f"pivot at {lead} has a lead 0 mod p"
        return insert(self, vec, tag)

    monkeypatch.setattr(SparseMatrix, "eliminate", recorded_eliminate)
    monkeypatch.setattr(SpanTracker, "insert", checked_insert)
    report = c.cohomology()
    assert below[0].pivots == first.pivots
    # boundaries carry no tag: the seeded pivots are those with an empty
    # combo, the pivots of the elimination below, by identity
    seeds = []
    for d, elimination in zip(c.window.interior(), below):
        seeded = {lead: pvec for lead, (pvec, combo) in report._classes[d].pivots.items()
                  if not combo}
        assert seeded.keys() == elimination.pivots.keys()
        assert all(pvec is elimination.pivots[lead][0] for lead, pvec in seeded.items())
        seeds += [pvec[lead] for lead, pvec in seeded.items()]
    assert seeds and first_leads <= set(seeds)
