"""The block-built bars against a plain assembly, the bars' two
StructuralErrors, and dims-only answers that never read a matrix as
Fractions.

The reference boundaries below are written from the formulas in the
docstrings of koszul.bar, word by word in field arithmetic through
spec.degree, diff and mult, and assembled by complex_from_labels.  Every
differential of the block-built bar must have exactly their entries,
scalar types included: with binding weight caps, with sums of residues
that wrap to zero mod p, and with regular modules on both sides.
"""

from fractions import Fraction

import pytest

from koszul.bar import bar_complex, bar_homology_dims, derived_tensor_dims, two_sided_bar
from koszul.dga import (
    DgAlgebraSpec, algebra_slice, finite_dga_from_tables, free_assoc,
    square_zero, tensor_algebra, truncated_polynomial,
)
from koszul.dgmod import DgModuleSpec, regular_module, trivial_module
from koszul.dual import dual_cohomology_dims, koszul_dual_slice
from koszul.exactla import (
    QQ, Field, SparseMatrix, StructuralError, Window, complex_from_labels,
)

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
    return complex_from_labels(spec.field, built.complex.window, built.basis,
                               lambda word: _word_boundary(spec, word, 0)[0])


def _reference_two_sided(left, spec, right, built):
    return complex_from_labels(spec.field, built.complex.window, built.basis,
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
        assert m == ref


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
    outer_bar_window = window.mirrored().padded(1)
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


CAPPED = [
    pytest.param(lambda: truncated_polynomial(QQ, 3, 0), Window(-7, 0), id="cubic-Q"),
    pytest.param(lambda: _rebased_cubic(F5), Window(-6, 0), id="rebased-F5"),
    pytest.param(lambda: free_assoc(QQ, [("u", 2), ("v", 3)]), Window(-1, 5), id="free-u2-v3"),
]


@pytest.mark.parametrize("drop", [1, 2])
@pytest.mark.parametrize("make, window", CAPPED)
def test_bar_under_a_binding_weight_cap_matches_the_plain_assembly(make, window, drop):
    # below the computed cap a word list with c letters is not the one with
    # c - 1, so a merged word's tail moves to a new position
    spec = make()
    cap = bar_complex(spec, window).max_weight - drop
    built = bar_complex(spec, window, max_weight=cap)
    assert built.max_weight == cap
    _assert_same_complex(built.complex, _reference_bar(spec, built))


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
    reg = regular_module(spec)
    two = two_sided_bar(reg, spec, reg, Window(-3, 1))
    assert _wrapping_sums(spec, two, lambda label: _two_sided_boundary(reg, spec, reg, label))
    _assert_same_complex(two.complex, _reference_two_sided(reg, spec, reg, two))


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


CAPPED_TWO_SIDED = [
    pytest.param(lambda: truncated_polynomial(F32003, 3, 0), "k", Window(-4, 0), id="k"),
    pytest.param(lambda: truncated_polynomial(F32003, 3, 0), "reg", Window(-4, 0), id="reg"),
    # letters of shifted degrees -1 and -2 and modules in degrees -1 and 0:
    # m.a_1 moves t into the list with one more letter, at a new position
    pytest.param(lambda: _cone(QQ, Fraction(2, 3)), "reg", Window(-4, 1), id="reg-cone-Q"),
    pytest.param(lambda: free_assoc(QQ, [("u", 2), ("v", 3)]), "reg", Window(0, 6),
                 id="reg-u2-v3-Q"),
]


@pytest.mark.parametrize("drop", [1, 2])
@pytest.mark.parametrize("make, modules, window", CAPPED_TWO_SIDED)
def test_two_sided_bar_under_a_binding_weight_cap_matches_the_plain_assembly(
        make, modules, window, drop):
    spec = make()
    module = trivial_module(spec) if modules == "k" else regular_module(spec)
    cap = two_sided_bar(module, spec, module, window).max_weight - drop
    built = two_sided_bar(module, spec, module, window, max_weight=cap)
    assert built.max_weight == cap
    _assert_same_complex(built.complex, _reference_two_sided(module, spec, module, built))


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
    assert moved.complex.diff == {d + n: m for d, m in plain.complex.diff.items()}


# -- the bars' StructuralErrors -------------------------------------------------


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
    with pytest.raises(StructuralError, match=message):
        bar_complex(spec, Window(0, 4))


def test_bad_merge_is_reported_by_the_two_sided_bar():
    spec = _bad_square({"1": QQ.one})
    k = trivial_module(spec)
    assert two_sided_bar(k, spec, k, Window(0, 3)).homology_dims()[2] == 1
    with pytest.raises(StructuralError, match="leaves the augmentation ideal"):
        two_sided_bar(k, spec, k, Window(0, 4))


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
    # on [8, 9] degree 6 is not assembled but [h|u|u] is
    with pytest.raises(StructuralError, match=message):
        bar_complex(spec, Window(8, 9))
    with pytest.raises(StructuralError, match=two_sided_message):
        two_sided_bar(k, spec, k, Window(8, 9))


@pytest.mark.parametrize("window, message", [
    (Window(0, 3), r"d\(\('u',\)\) has term \('q',\) outside the degree 4 basis"),
    (Window(5, 6), r"d\(\('h', 'u'\)\) has term \('h', 'q'\) outside the degree 6 basis"),
], ids=["first-letter", "behind-a-harmless-letter"])
def test_letter_differential_outside_the_basis_names_the_whole_word(window, message):
    spec = _behind_a_harmless_letter({}, du={"q": QQ.one})
    with pytest.raises(StructuralError, match=message):
        bar_complex(spec, window)


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
    with pytest.raises(StructuralError, match=r"merge 'v'\*'v' leaves the augmentation ideal"):
        bar_complex(spec, Window(-1, 0))
    with pytest.raises(StructuralError, match=r"m\.v is undefined"):
        two_sided_bar(left, spec, trivial_module(spec), Window(-1, 0))


def test_missing_module_action_is_reported_only_where_a_column_uses_it():
    spec = square_zero(QQ, 1)
    left_only = DgModuleSpec(
        QQ, "k_left", spec, "left", basis=lambda d: ("[]",) if d == 0 else (),
        degree=lambda l: 0, diff=lambda l: {},
        left_act=lambda a, m: {m: spec.aug(a)} if spec.aug(a) else {},
        min_degree=0, max_degree=0)
    k = trivial_module(spec)
    # weight 0 has no letters, so no column multiplies m by a letter
    assert two_sided_bar(left_only, spec, k, Window(-1, 0), max_weight=0).homology_dims() \
        == {-1: 0, 0: 1}
    with pytest.raises(StructuralError, match="has no right action"):
        two_sided_bar(left_only, spec, k, Window(-1, 0))
    right_only = DgModuleSpec(
        QQ, "k_right", spec, "right", basis=lambda d: ("[]",) if d == 0 else (),
        degree=lambda l: 0, diff=lambda l: {},
        right_act=lambda m, a: {m: spec.aug(a)} if spec.aug(a) else {},
        min_degree=0, max_degree=0)
    assert two_sided_bar(k, spec, right_only, Window(-1, 0), max_weight=0).homology_dims() \
        == {-1: 0, 0: 1}
    with pytest.raises(StructuralError, match="has no left action"):
        two_sided_bar(k, spec, right_only, Window(-1, 0))


def test_module_term_outside_the_basis_is_named_with_its_word():
    spec = square_zero(QQ, 1)
    bogus = DgModuleSpec(
        QQ, "bogus", spec, "bi", basis=lambda d: ("[]",) if d == 0 else (),
        degree=lambda l: 0, diff=lambda l: {"?": QQ.one},
        left_act=lambda a, m: {}, right_act=lambda m, a: {}, min_degree=0, max_degree=0)
    k = trivial_module(spec)
    # with no letters the first column is the empty word's, in degree 0
    with pytest.raises(StructuralError, match=r"d\(\('\[\]', \(\), '\[\]'\)\) has term "
                       r"\('\?', \(\), '\[\]'\) outside the degree 1 basis"):
        two_sided_bar(bogus, spec, k, Window(-1, 0), max_weight=0)
    # the same differential on the right: the term of the bare chain's dn
    with pytest.raises(StructuralError, match=r"d\(\('\[\]', \(\), '\[\]'\)\) has term "
                       r"\('\[\]', \(\), '\?'\) outside the degree 1 basis"):
        two_sided_bar(k, spec, bogus, Window(-1, 0), max_weight=0)
    # an action outside the basis: e.n is the head term of [e; n]
    acting = DgModuleSpec(
        QQ, "acting", spec, "left", basis=lambda d: ("[]",) if d == 0 else (),
        degree=lambda l: 0, diff=lambda l: {}, left_act=lambda a, m: {"?": QQ.one},
        min_degree=0, max_degree=0)
    with pytest.raises(StructuralError, match=r"d\(\('\[\]', \('e',\), '\[\]'\)\) has term "
                       r"\('\[\]', \(\), '\?'\) outside the degree -1 basis"):
        two_sided_bar(k, spec, acting, Window(-1, 0))


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
