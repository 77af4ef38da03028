"""The letter-table certificate of d^2 = 0 on the bars.

A bar whose letter table has every defect zero (d_A^2 on a letter, the
Leibniz defect on a pair, the associator on a triple, and for B(M, A, N)
the same defects of the module differentials and actions) is marked as
certified, and its cohomology, and its dual's, skips the matrix check of
d^2 = 0.  Here: a failing d^2 is never certified and raises the matrix
check's own error, one structure constant perturbed at a time; the mark
names the check; dims-only answers never run the matrix check; and a sign
bug in the assembly passes the certificate, which is why the suite's
guard (conftest.py) runs the matrix check on every certified bar.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from koszul import bar
from koszul.bar import bar_complex, bar_homology_dims, derived_tensor_dims, two_sided_bar
from koszul.dga import DgAlgebraSpec, algebra_slice, tensor_algebra, truncated_polynomial
from koszul.dgmod import DgModuleSpec, trivial_module
from koszul.dual import dual_cohomology_dims, dual_cohomology_ring, koszul_dual_slice
from koszul.exactla import QQ, CochainComplexSlice, Field, InvalidComplexError, Window

F5, F32003 = Field(5), Field(32003)

DEGREES = {"1": 0, "x": 0, "y": 0, "t": -1, "u": -1, "v": -1, "s": -2}

# One structure constant of the algebra below, of the left action of N or
# of the right action of M, whether adding to it breaks a defect, and
# whether the algebra is taken with d = 0, so that only the associator
# breaks: (table, key, term, harmful, flat).
POSITIONS = {
    "d2-of-a-letter": ("d", "s", "t", True, False),  # ds = delta t: d^2 s = delta x
    "differential": ("d", "t", "y", False, False),
    "leibniz-pair": ("d", "u", "x", True, False),  # d(xt) = y + delta x, x.dt = y
    "associator": ("m", ("x", "y"), "y", True, True),  # (xx)x = 0, x(xx) = delta y
    "leibniz-product": ("m", ("x", "t"), "t", True, False),  # d(xt) = y + delta x
    "square-of-t": ("m", ("t", "t"), "s", False, False),
    "left-associator": ("left", ("x", "y"), "y", True, True),  # x.(x.x) = delta y
    "left-leibniz": ("left", ("t", "x"), "t", True, False),  # d(t.x) = y + delta x
    "right-associator": ("right", ("y", "x"), "y", True, True),  # (x.x).x = delta y
    "right-leibniz": ("right", ("x", "t"), "t", True, False),  # d(x.t) = y + delta x
}


def _tables(field, position, delta):
    """A = k[x, t]/(x^3, t^2) + k s, with |t| = -1, dt = x (or d = 0 when
    flat), |s| = -2 and s a product of nothing (y = x^2, u = xt,
    v = x^2 t), a dg algebra in which x.(dt) and t.(dt) are nonzero, and
    N = M = A as modules; then
    delta added, unreduced, to the one constant that position names (a
    constant of A is one of the modules' too)."""
    one = field.one
    table, key, term, _, flat = POSITIONS[position]
    tables = {"d": {} if flat else {"t": {"x": one}, "u": {"y": one}}, "m": {}}
    products = {("x", "x"): "y", ("x", "t"): "u", ("t", "x"): "u", ("x", "u"): "v",
                ("u", "x"): "v", ("y", "t"): "v", ("t", "y"): "v"}
    for pair, l in products.items():
        tables["m"][pair] = {l: one}
    for l in DEGREES:
        tables["m"][("1", l)] = {l: one}
        tables["m"][(l, "1")] = {l: one}
    if table in ("d", "m"):
        _add(tables[table], key, term, delta)
    tables["left"], tables["right"] = dict(tables["m"]), dict(tables["m"])
    if table in ("left", "right"):
        _add(tables[table], key, term, delta)
    return tables


def _add(table, key, term, delta):
    lc = table[key] = dict(table.get(key, {}))
    lc[term] = lc.get(term, 0) + delta


def _algebra(field, tables):
    def lookup(table, key):
        return dict(tables[table].get(key, {}))

    spec = DgAlgebraSpec(
        field, "table", basis=lambda d: tuple(l for l, e in DEGREES.items() if e == d),
        degree=DEGREES.__getitem__, diff=lambda l: lookup("d", l),
        mult=lambda a, b: lookup("m", (a, b)), unit="1",
        aug=lambda l: field.one if l == "1" else field.zero, min_degree=-2, max_degree=0)
    reg = DgModuleSpec(
        field, "reg", spec, "bi", basis=spec.basis, degree=spec.degree, diff=spec.diff,
        left_act=lambda a, n: lookup("left", (a, n)),
        right_act=lambda m, a: lookup("right", (m, a)), min_degree=-2, max_degree=0)
    return spec, {"k": trivial_module(spec), "reg": reg}


def _check(complex_, dims):
    """A certified complex has d^2 = 0; a failing d^2 is not certified and
    dims() raises the matrix check's error.  Returns the failure."""
    failure = complex_.d_squared_failure()
    if complex_.certified_by is not None:
        assert failure is None
    if failure is None:
        dims()
    else:
        with pytest.raises(InvalidComplexError) as info:
            dims()
        assert (info.value.degree, str(info.value)) == (
            failure[0], f"d^2 != 0 starting at degree {failure[0]}")
    return failure


def _built(field, position, delta, lo, sides):
    """The bar, or B(M, A, N) for sides "M-N", of the perturbed tables on
    [lo, 0]."""
    spec, modules = _algebra(field, _tables(field, position, delta))
    window = Window(lo, 0)
    if sides == "bar":
        return spec, bar_complex(spec, window)
    left, right = sides.split("-")
    return spec, two_sided_bar(modules[left], spec, modules[right], window)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_the_unperturbed_tables_are_a_dg_algebra(field):
    for position in ("differential", "associator"):
        spec, _ = _algebra(field, _tables(field, position, 0))
        assert algebra_slice(spec, Window(-2, 0)).validate().ok


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from([QQ, F5]), position=st.sampled_from(sorted(POSITIONS)),
       delta=st.sampled_from([1, 2, 5, -1, Fraction(2, 3)]), lo=st.integers(-3, -1),
       sides=st.sampled_from(["bar", "k-k", "k-reg", "reg-k", "reg-reg"]))
def test_a_failing_d_squared_is_never_certified(field, position, delta, lo, sides):
    assume(field.p is None or isinstance(delta, int))
    spec, built = _built(field, position, delta, lo, sides)
    failure = _check(built.complex, built.homology_dims)
    vanishes = field.p is not None and delta % field.p == 0
    if vanishes or not POSITIONS[position][3]:
        assert built.complex.certified_by == "letters"
    if sides == "bar":
        dual = koszul_dual_slice(spec, Window(0, -lo))
        complex_ = dual.algebra.complex()
        assert complex_.certified_by == (built.complex.certified_by and "transpose")
        assert (_check(complex_, dual.homology_dims) is None) == (failure is None)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("position", [p for p, v in POSITIONS.items() if v[3]])
def test_each_broken_defect_falls_back_to_the_matrix_check(field, position):
    sides = "reg-reg" if POSITIONS[position][0] in ("left", "right") else "bar"
    _, built = _built(field, position, 1, -3, sides)
    assert built.complex.certified_by is None
    assert _check(built.complex, built.homology_dims) is not None
    # a perturbation of size 5 vanishes over F_5: the tables are the algebra's
    _, built = _built(field, position, 5, -3, sides)
    assert (built.complex.certified_by == "letters") == (field.p == 5)


def test_the_mark_names_the_check():
    cubic = truncated_polynomial(QQ, 3, 0)
    k = trivial_module(cubic)
    assert bar_complex(cubic, Window(-4, 0)).complex.certified_by == "letters"
    assert two_sided_bar(k, cubic, k, Window(-4, 0)).complex.certified_by == "letters"
    assert koszul_dual_slice(cubic, Window(0, 4)).algebra.complex().certified_by == "transpose"
    assert algebra_slice(cubic, Window(0, 0)).complex().certified_by is None
    spec, _ = _algebra(QQ, _tables(QQ, "associator", 1))
    assert bar_complex(spec, Window(-3, 0)).complex.certified_by is None
    assert koszul_dual_slice(spec, Window(0, 3)).algebra.complex().certified_by is None


def _exterior2(field):
    """k[x, y]/(x^2, y^2), x and y in degree 0."""
    one = algebra_slice(truncated_polynomial(field, 2, 0), Window(0, 0))
    return tensor_algebra(one, one).as_spec()


def _scaled_cubic(field, c):
    """k{1, x, y} in degree 0 with x.x = c y."""
    spec = truncated_polynomial(field, 3, 0)
    mult = spec.mult
    return DgAlgebraSpec(
        field, "scaled cubic", basis=spec.basis, degree=spec.degree, diff=spec.diff,
        mult=lambda a, b: {"x^2": c} if a == b == "x" else mult(a, b), unit="1",
        aug=spec.aug, min_degree=0, max_degree=0)


def test_dims_only_answers_skip_the_matrix_check(monkeypatch):
    def refuse(self):
        raise AssertionError("the matrix check of d^2 ran on a certified complex")

    monkeypatch.setattr(CochainComplexSlice, "d_squared_failure", refuse)
    for spec in (truncated_polynomial(QQ, 3, 0), truncated_polynomial(F32003, 3, 0),
                 _scaled_cubic(QQ, Fraction(2, 3))):
        k = trivial_module(spec)
        assert bar_homology_dims(spec, Window(-8, 0)) == dict.fromkeys(range(-8, 1), 1)
        assert dual_cohomology_dims(spec, Window(0, 8)) == dict.fromkeys(range(9), 1)
        assert derived_tensor_dims(k, spec, k, Window(-6, 0)) == dict.fromkeys(range(-6, 1), 1)
    exterior = _exterior2(F5)
    k = trivial_module(exterior)
    assert bar_homology_dims(exterior, Window(-5, 0)) == {-n: n + 1 for n in range(6)}
    assert dual_cohomology_dims(exterior, Window(0, 5)) == {n: n + 1 for n in range(6)}
    assert derived_tensor_dims(k, exterior, k, Window(-4, 0)) == {-n: n + 1 for n in range(5)}
    ring = dual_cohomology_ring(truncated_polynomial(QQ, 3, 0), Window(0, 4))
    assert ring.dims == dict.fromkeys(range(5), 1)
    assert ring.ring


def _negate_moved_columns(monkeypatch):
    """A sign bug in the one assembly: every tail's column that the dual
    moves into a block comes out negated."""
    moved = bar._moved
    monkeypatch.setattr(bar, "_moved", lambda cols, rows: [
        {i: -x for i, x in col.items()} for col in moved(cols, rows)])


def test_a_sign_bug_in_the_assembly_passes_the_certificate(monkeypatch, certified_complexes):
    """The certificate reads the letter table, not the matrices: with the
    dual's moved columns negated, the bar of k[x]/x^4, built as the dual's
    signed transpose, is still certified, but its matrices have d^2 != 0,
    which only the guard's matrix check sees; so has the dual it was
    built from."""
    _negate_moved_columns(monkeypatch)
    chains = bar._reduced(truncated_polynomial(QQ, 4, 0), Window(-4, 0))
    built = bar._bar_slice(chains).complex
    dual = bar._cobar_slice(chains)
    assert built.certified_by == "letters" and dual.certified_by == "transpose"
    assert built.d_squared_failure() is not None
    assert dual.d_squared_failure() is not None
    certified_complexes.remove(built)
    certified_complexes.remove(dual)


def test_a_sign_bug_in_the_dual_assembly_passes_the_certificate(
        monkeypatch, certified_complexes):
    """The same through the public calls: with the dual's moved columns
    negated, the dual of k[x]/x^4 is still marked certified, and so is
    the bar built from it, but d^2 != 0 on the matrices of both, which
    only the guard's matrix check sees."""
    _negate_moved_columns(monkeypatch)
    spec = truncated_polynomial(QQ, 4, 0)
    dual, _ = bar.dual_complex(spec, Window(0, 4))
    built = bar.bar_complex(spec, Window(-4, 0)).complex
    assert dual.certified_by == "transpose" and built.certified_by == "letters"
    assert dual.d_squared_failure() is not None
    assert built.d_squared_failure() is not None
    certified_complexes.remove(dual)
    certified_complexes.remove(built)


def _chain_module(field, x2_on_n0):
    """N = k{n0, n1, n2} in degree 0 over k[x]/x^3, d = 0, x.n0 = n1,
    x.n1 = n2 and x^2.n0 = x2_on_n0 n2; every other product of a letter is
    zero.  N is a module for x2_on_n0 = 1.  n2 is inert (no letter acts on
    it and dn2 = 0), n0 is not: only x acts on it when x2_on_n0 = 0."""
    one = field.one
    cubic = truncated_polynomial(field, 3, 0)
    acts = {("x", "n0"): {"n1": one}, ("x", "n1"): {"n2": one},
            ("x^2", "n0"): {"n2": field.of_int(x2_on_n0)}}

    def left_act(a, n):
        return {n: one} if a == "1" else dict(acts.get((a, n), {}))

    return cubic, DgModuleSpec(
        field, "N", cubic, "left", basis=lambda d: ("n0", "n1", "n2") if d == 0 else (),
        degree=lambda n: 0, diff=lambda n: {}, left_act=left_act, min_degree=0, max_degree=0)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_a_defect_at_a_base_element_that_one_letter_moves_is_not_left_out(field):
    """The certificate leaves out the segments ending in an inert base
    element.  n0 has dn0 = 0 and x^2.n0 = 0, but x.n0 = n1, so it is not
    inert, and its one defect, (x x).n0 = 0 against x.(x.n0) = n2, must
    still fail the certificate."""
    for x2_on_n0, certified in ((1, "letters"), (0, None)):
        cubic, module = _chain_module(field, x2_on_n0)
        built = two_sided_bar(trivial_module(cubic), cubic, module, Window(-4, 0))
        assert built.complex.certified_by == certified
        assert (built.complex.d_squared_failure() is None) == (certified is not None)
