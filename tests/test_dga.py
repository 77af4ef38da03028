"""Algebra specs, slices, validators, builders."""

import pytest

from koszul.exactla import QQ, Field, Window, RefusalError, StructuralError
from koszul.dga import (
    algebra_slice, base_field_algebra, square_zero, truncated_polynomial,
    free_assoc, opposite, tensor_algebra, finite_dga_from_tables,
    connective_cover, cohomology_ring, full_cohomology, DgaMap, DgAlgebraSpec, lc_equal,
)


def test_builder_slices_validate():
    specs = [
        base_field_algebra(QQ),
        square_zero(QQ, 0), square_zero(QQ, 1), square_zero(QQ, 3),
        truncated_polynomial(QQ, 2, 0), truncated_polynomial(QQ, 3, -2),
        truncated_polynomial(Field(2), 4, -1),
        free_assoc(QQ, [("u", 2)]), free_assoc(QQ, [("u", 1), ("v", 2)]),
        free_assoc(Field(5), [("a", -1), ("b", -3)]),
    ]
    for spec in specs:
        a = algebra_slice(spec, Window(-6, 6))
        report = a.validate()
        assert report.ok, (spec.name, report)


def test_square_zero_shape():
    a = algebra_slice(square_zero(QQ, 2), Window(-4, 1))
    assert a.dims() == {-2: 1, 0: 1}
    assert a.complete
    assert a.mult("e", "e") == {}
    assert a.aug_of("1") == QQ.one and a.aug_of("e") == QQ.zero
    with pytest.raises(RefusalError):
        square_zero(QQ, -1)


def test_truncated_polynomial_shape_and_errors():
    a = algebra_slice(truncated_polynomial(QQ, 3, -2), Window(-6, 0))
    assert a.dims() == {-4: 1, -2: 1, 0: 1}
    assert a.mult("x", "x") == {"x^2": QQ.one}
    assert a.mult("x", "x^2") == {}
    with pytest.raises(RefusalError):
        truncated_polynomial(QQ, 1, -2)
    with pytest.raises(RefusalError):
        truncated_polynomial(QQ, 3, 2)
    with pytest.raises(RefusalError):
        truncated_polynomial(QQ, 3, -1)  # odd degree needs char 2
    truncated_polynomial(Field(2), 3, -1)  # fine there


def _word_count(degrees, d):
    """Independent count of words over positive letter degrees summing to d."""
    if d == 0:
        return 1
    counts = [1] + [0] * d
    for k in range(1, d + 1):
        counts[k] = sum(counts[k - g] for g in degrees if k - g >= 0)
    return counts[d]


def test_free_assoc_word_enumeration():
    spec = free_assoc(QQ, [("u", 1), ("v", 2)])
    assert spec.basis(0) == ("1",)
    assert set(spec.basis(3)) == {"u*v", "v*u", "u*u*u"}
    for d in range(0, 9):
        assert len(spec.basis(d)) == _word_count([1, 2], d)
    # negative generators mirror
    neg = free_assoc(QQ, [("a", -1), ("b", -2)])
    for d in range(0, 9):
        assert len(neg.basis(-d)) == _word_count([1, 2], d)
    assert spec.degree("u*v*u") == 4
    assert spec.mult("u", "v*u") == {"u*v*u": QQ.one}


def test_free_assoc_lists_words_by_first_generator_then_tail():
    """k<u, v> with |u| = -2 and |v| = -3 on degrees 0 to -12: each
    degree's words by first generator, then in their tail's order, however
    the degrees are asked for.  Kept narrow: the count grows exponentially
    with the degree."""
    spec = free_assoc(QQ, [("u", -2), ("v", -3)])
    listed = {
        0: ("1",), -1: (), -2: ("u",), -3: ("v",), -4: ("u*u",), -5: ("u*v", "v*u"),
        -6: ("u*u*u", "v*v"), -7: ("u*u*v", "u*v*u", "v*u*u"),
        -8: ("u*u*u*u", "u*v*v", "v*u*v", "v*v*u"),
        -9: ("u*u*u*v", "u*u*v*u", "u*v*u*u", "v*u*u*u", "v*v*v"),
        -10: ("u*u*u*u*u", "u*u*v*v", "u*v*u*v", "u*v*v*u", "v*u*u*v", "v*u*v*u", "v*v*u*u"),
        -11: ("u*u*u*u*v", "u*u*u*v*u", "u*u*v*u*u", "u*v*u*u*u", "u*v*v*v", "v*u*u*u*u",
              "v*u*v*v", "v*v*u*v", "v*v*v*u"),
        -12: ("u*u*u*u*u*u", "u*u*u*v*v", "u*u*v*u*v", "u*u*v*v*u", "u*v*u*u*v", "u*v*u*v*u",
              "u*v*v*u*u", "v*u*u*u*v", "v*u*u*v*u", "v*u*v*u*u", "v*v*u*u*u", "v*v*v*v"),
    }
    # asked far degrees first, and degrees of the wrong sign
    assert {d: spec.basis(d) for d in (-12, 3, *range(-11, 1))} == {**listed, 3: ()}


def test_free_assoc_rejections():
    with pytest.raises(RefusalError):
        free_assoc(QQ, [])
    with pytest.raises(RefusalError):
        free_assoc(QQ, [("u", 0)])
    with pytest.raises(RefusalError):
        free_assoc(QQ, [("u", 1), ("v", -1)])
    with pytest.raises(RefusalError):
        free_assoc(QQ, [("u", 1), ("u", 2)])
    with pytest.raises(RefusalError):
        free_assoc(QQ, [("a*b", 1)])


def test_broken_leibniz_is_witnessed():
    # t*t = s but d(s) = t: the Leibniz rule fails on (t, t) while d^2 still
    # holds, so the report must blame exactly the right axiom.
    field = QQ
    basis = {0: ("1",), -1: ("t",), -2: ("s",)}
    diff = {"s": {"t": field.one}}
    mult = {("1", "1"): {"1": field.one}, ("1", "t"): {"t": field.one},
            ("t", "1"): {"t": field.one}, ("1", "s"): {"s": field.one},
            ("s", "1"): {"s": field.one}, ("t", "t"): {"s": field.one}}
    a = finite_dga_from_tables(field, Window(-2, 0), basis, diff, mult, "1",
                               {"1": field.one}, complete=True, name="broken")
    report = a.validate()
    assert not report.ok
    assert report.checks["d_squared"]
    assert not report.checks["leibniz"]
    assert report.witnesses["leibniz"] == ("t", "t")
    with pytest.raises(StructuralError):
        report.raise_if_failed()


def test_broken_associativity_is_witnessed():
    # a*a = b and a*b = b but b*a = 0: (xy)z = x(yz) fails on (a, a, b) and
    # on (a, a, a); b is listed first, so the innermost loop reaches
    # (a, a, b) first and only that witness is kept
    field = QQ
    basis = {0: ("1", "b", "a")}
    mult = {("1", x): {x: field.one} for x in ("1", "a", "b")}
    mult.update({(x, "1"): {x: field.one} for x in ("a", "b")})
    mult.update({("a", "a"): {"b": field.one}, ("a", "b"): {"b": field.one}})
    a = finite_dga_from_tables(field, Window(0, 0), basis, {}, mult, "1",
                               {"1": field.one}, complete=True, name="nonassociative")
    report = a.validate()
    assert report.checks == {"d_squared": True, "leibniz": True, "associativity": False,
                             "unit": True, "augmentation": True}
    assert report.witnesses == {"associativity": ("a", "a", "b")}


def test_broken_d_squared_is_witnessed():
    field = QQ
    basis = {0: ("1",), -1: ("t",), -2: ("s",)}
    diff = {"s": {"t": field.one}, "t": {"1": field.one}}
    mult = {("1", "1"): {"1": field.one}, ("1", "t"): {"t": field.one},
            ("t", "1"): {"t": field.one}, ("1", "s"): {"s": field.one},
            ("s", "1"): {"s": field.one}}
    a = finite_dga_from_tables(field, Window(-2, 0), basis, diff, mult, "1",
                               {"1": field.one}, complete=True)
    report = a.validate()
    assert not report.checks["d_squared"]
    assert report.witnesses["d_squared"] == ("s",)


def test_opposite_is_involutive():
    spec = free_assoc(QQ, [("u", -1), ("v", -2)])
    op = opposite(spec)
    opop = opposite(op)
    for a, b in [("u", "v"), ("v", "u"), ("u*v", "u"), ("u", "u")]:
        assert opop.mult(a, b) == spec.mult(a, b)
    # odd*odd picks up a sign
    assert op.mult("u", "u") == {"u*u": QQ.neg(QQ.one)}
    assert op.mult("u", "v") == {"v*u": QQ.one}
    a = algebra_slice(op, Window(-5, 0))
    assert a.validate().ok


def test_slice_monotone_and_truncation_records():
    spec = truncated_polynomial(QQ, 3, -2)
    small = algebra_slice(spec, Window(-3, 0))
    big = algebra_slice(spec, Window(-6, 1))
    for d in small.window.degrees():
        assert small.labels(d) == big.labels(d)
    assert not small.complete and big.complete
    # x*x lands at -4, outside the small window
    assert small.mult("x", "x") == {}
    assert big.mult("x", "x") == {"x^2": QQ.one}


def test_tensor_algebra_validates():
    a = algebra_slice(truncated_polynomial(QQ, 2, 0), Window(0, 0))
    b = algebra_slice(truncated_polynomial(QQ, 2, 0), Window(0, 0))
    t = tensor_algebra(a, b)
    assert t.dims() == {0: 4}
    assert t.validate().ok
    assert t.complete
    incomplete = algebra_slice(free_assoc(QQ, [("u", 2)]), Window(0, 4))
    with pytest.raises(RefusalError):
        tensor_algebra(incomplete, b)


def test_tensor_algebra_koszul_sign():
    # odd-degree elements anticommute across the tensor factors
    spec = free_assoc(QQ, [("u", -1)])
    a = algebra_slice(spec, Window(-3, 0))
    a = finite_dga_from_tables(  # chop to a complete 2-dim slice: k[u]/u^2
        QQ, Window(-1, 0), {0: ("1",), -1: ("u",)}, {},
        {("1", "1"): {"1": QQ.one}, ("1", "u"): {"u": QQ.one},
         ("u", "1"): {"u": QQ.one}, ("u", "u"): {}},
        "1", {"1": QQ.one}, complete=True, name="ext")
    t = tensor_algebra(a, a)
    x = ("u", "1")
    y = ("1", "u")
    assert t.mult(x, y) == {("u", "u"): QQ.one}
    assert t.mult(y, x) == {("u", "u"): QQ.neg(QQ.one)}
    assert t.validate().ok


def test_connective_cover_contracts_acyclic_top():
    # 1, x in degree 0 and y in degree 1 with d(x) = y: the cover is just k.
    field = QQ
    basis = {0: ("1", "x"), 1: ("y",)}
    diff = {"x": {"y": field.one}}
    mult = {("1", "1"): {"1": field.one}, ("1", "x"): {"x": field.one},
            ("x", "1"): {"x": field.one}, ("1", "y"): {"y": field.one},
            ("y", "1"): {"y": field.one}, ("x", "x"): {}, ("x", "y"): {},
            ("y", "x"): {}, ("y", "y"): {}}
    a = finite_dga_from_tables(field, Window(0, 1), basis, diff, mult, "1",
                               {"1": field.one}, complete=True, name="acyclic_top")
    assert a.validate().ok
    cover = connective_cover(a)
    assert cover.dims() == {0: 1}
    assert cover.validate().ok
    # already-connective input comes back unchanged
    c2 = algebra_slice(square_zero(QQ, 1), Window(-2, 0))
    assert connective_cover(c2) is c2


def test_connective_cover_refuses_positive_cohomology():
    field = QQ
    basis = {0: ("1",), 1: ("y",)}
    mult = {("1", "1"): {"1": field.one}, ("1", "y"): {"y": field.one},
            ("y", "1"): {"y": field.one}, ("y", "y"): {}}
    a = finite_dga_from_tables(field, Window(0, 1), basis, {}, mult, "1",
                               {"1": field.one}, complete=True)
    with pytest.raises(RefusalError):
        connective_cover(a)


def test_full_cohomology_and_ring():
    a = algebra_slice(square_zero(QQ, 2), Window(-2, 0))
    h = full_cohomology(a)
    assert h.nonzero_dims() == {-2: 1, 0: 1}
    report = cohomology_ring(a, full=True)
    assert report.nonzero_dims() == {-2: 1, 0: 1}
    # unit class acts as identity on the degree -2 class
    assert report.ring[((0, 0), (-2, 0))] == {(-2, 0): QQ.one}
    assert report.ring[((-2, 0), (0, 0))] == {(-2, 0): QQ.one}
    # e*e lives in degree -4, outside the window: recorded as skipped
    assert (-2, -2, -4) in report.ring_skipped


@pytest.mark.parametrize("aug, message", [
    ({"1": QQ.one, "q": QQ.one}, "augmentation is given on 'q', which is not a basis label"),
    ({"1": QQ.one, "t": QQ.one}, "augmentation is nonzero on 't' outside degree 0"),
], ids=("unknown-label", "degree-minus-1"))
def test_augmentation_off_the_degree_0_basis_is_refused(aug, message):
    basis = {-1: ("t",), 0: ("1",)}
    mult = {("1", l): {l: QQ.one} for l in ("1", "t")}
    mult[("t", "1")] = {"t": QQ.one}
    with pytest.raises(StructuralError) as err:
        finite_dga_from_tables(QQ, Window(-1, 0), basis, {}, mult, "1", aug, complete=True)
    assert str(err.value) == message


# (basis, augmentation) of tables that list x twice: in one degree, in two
# degrees, and with an augmentation on an unknown label, which the parent's
# order of checks also reports as the repeat
REPEATED_LABELS = {
    "one-degree": ({0: ("1", "x", "x")}, {"1": QQ.one}),
    "two-degrees": ({-1: ("x",), 0: ("1", "x")}, {"1": QQ.one}),
    "and-an-unknown-augmentation": ({0: ("1", "x", "x")}, {"1": QQ.one, "q": QQ.one}),
}


@pytest.mark.parametrize("case", sorted(REPEATED_LABELS))
def test_a_repeated_label_is_refused_when_the_table_is_built(case):
    basis, aug = REPEATED_LABELS[case]
    mult = {("1", "1"): {"1": QQ.one}}
    with pytest.raises(StructuralError) as err:
        finite_dga_from_tables(QQ, Window(min(basis), 0), basis, {}, mult, "1", aug,
                               complete=True)
    assert str(err.value) == "duplicate basis label 'x'"


def test_a_repeated_label_is_refused_when_a_spec_is_sliced():
    base = truncated_polynomial(QQ, 2, 0)
    spec = DgAlgebraSpec(
        QQ, "twice", basis=lambda d: ("1", "x", "x") if d == 0 else (),
        degree=base.degree, diff=base.diff, mult=base.mult, unit="1", aug=base.aug,
        min_degree=0, max_degree=0)
    with pytest.raises(StructuralError) as err:
        algebra_slice(spec, Window(-1, 1))
    assert str(err.value) == "duplicate basis label 'x'"


def test_dga_map_validation():
    k = algebra_slice(base_field_algebra(QQ), Window(-1, 0))
    a = algebra_slice(square_zero(QQ, 1), Window(-1, 0))
    aug = DgaMap(a, k, {"1": {"1": QQ.one}})
    assert aug.validate_map().ok
    a0 = algebra_slice(square_zero(QQ, 0), Window(0, 0))
    k0 = algebra_slice(base_field_algebra(QQ), Window(0, 0))
    bad = DgaMap(a0, k0, {"1": {"1": QQ.one}, "e": {"1": QQ.one}})
    report = bad.validate_map()
    assert not report.ok
    assert not report.checks["multiplicative"] or not report.checks["augmentation"]


def test_lc_equal():
    assert lc_equal(QQ, {}, {})
    assert lc_equal(QQ, {"a": QQ.one}, {"a": QQ.one})
    assert not lc_equal(QQ, {"a": QQ.one}, {})
    assert not lc_equal(QQ, {"a": QQ.one}, {"a": QQ.neg(QQ.one)})
