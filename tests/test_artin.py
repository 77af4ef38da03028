"""Tests for the interval, path objects, fiber products, squares, towers."""

import pytest

from koszul.exactla import QQ, Field, Window, RefusalError, StructuralError
from koszul.dga import (
    DgaMap, algebra_slice, square_zero, truncated_polynomial, free_assoc,
    tensor_algebra, finite_dga_from_tables, full_cohomology,
)
from koszul.dgmod import trivial_module, laurent_module
from koszul.artin import (
    interval_algebra, k_slice, unit_inclusion, augmentation_map, path_object,
    homotopy_fiber_product, is_artin, verify_square, small_extension_square,
    radical_filtration, TowerStep, TowerSpec, verify_tower,
    _path_lift_space, _induced_map,
)


def sq_slice(field, n):
    return algebra_slice(square_zero(field, n), Window(-n, 0))


def identity_map(a):
    one = a.field.one
    images = {l: {l: one} for d, ls in a.basis.items() for l in ls}
    return DgaMap(a, a, images, name="id")


# -- interval ---------------------------------------------------------------

def test_interval_validates_and_is_contractible():
    interval = interval_algebra(QQ)
    assert interval.validate()
    h = full_cohomology(interval)
    assert h.nonzero_dims() == {0: 1}


def test_interval_vertex_idempotents():
    interval = interval_algebra(QQ)
    e0 = {"1": QQ.one, "e": QQ.neg(QQ.one)}
    e1 = {"e": QQ.one}
    h = {"h": QQ.one}
    assert interval.mult_lc(e0, e0) == e0
    assert interval.mult_lc(e1, e1) == e1
    assert interval.mult_lc(e0, e1) == {}
    assert interval.mult_lc(e1, e0) == {}
    assert interval.diff_lc(e0) == {"h": -1}
    assert interval.diff_lc(e1) == {"h": 1}
    assert interval.mult_lc(e0, h) == {"h": 1}
    assert interval.mult_lc(h, e0) == {}
    assert interval.mult_lc(e1, h) == {}
    assert interval.mult_lc(h, e1) == {"h": 1}


def test_path_object_of_k():
    po = path_object(k_slice(QQ))
    assert po.ev0.validate_map()
    # the far evaluation is a dg algebra map but cannot respect the chosen
    # augmentation, which factors through ev0
    assert po.ev1.validate_map(check_augmentation=False)
    assert not po.ev1.validate_map()
    assert po.diagonal.validate_map()
    assert full_cohomology(po.algebra).nonzero_dims() == {0: 1}


def test_path_object_of_square_zero():
    z = sq_slice(QQ, 1)
    po = path_object(z)
    p = po.algebra
    assert {d: p.dim(d) for d in p.window.degrees() if p.dim(d)} == \
        {-1: 2, 0: 3, 1: 1}
    assert po.ev0.validate_map()
    assert po.ev1.validate_map(check_augmentation=False)
    assert full_cohomology(p).nonzero_dims() == \
        full_cohomology(z).nonzero_dims()
    assert po.ev0.apply({("1", "1"): QQ.one}) == {"1": 1}
    assert po.ev1.apply({("1", "e"): QQ.one}) == {"1": 1}
    assert po.ev0.apply({("1", "e"): QQ.one}) == {}


# -- homotopy fiber products ------------------------------------------------

def test_fiber_product_archetype():
    # k x_{k+k[1]} k is k[e] in degree 0: four strict-limit chains, H
    # two-dimensional with square-zero product
    k = k_slice(QQ)
    z = sq_slice(QQ, 1)
    fp = homotopy_fiber_product(unit_inclusion(k, z), unit_inclusion(k, z))
    assert fp.dim(0) == 3
    assert fp.dim(1) == 1
    assert fp.dim(-1) == 0
    assert fp.validate()
    h = full_cohomology(fp, representatives=True)
    assert h.nonzero_dims() == {0: 2}
    # every augmentation-adapted class squares to zero on the nose: the
    # cocycle space at degree 0 has no boundaries to quotient by
    for rep in h.representatives[0]:
        lc = fp.lincomb(rep, 0)
        aug = sum((fp.aug_of(l) * c for l, c in lc.items()), QQ.zero)
        adapted = dict(lc)
        cur = adapted.get("1", QQ.zero) - aug
        if cur:
            adapted["1"] = cur
        else:
            adapted.pop("1", None)
        if adapted:
            assert fp.mult_lc(adapted, adapted) == {}


def test_fiber_product_archetype_is_artin():
    k = k_slice(QQ)
    z = sq_slice(QQ, 1)
    fp = homotopy_fiber_product(unit_inclusion(k, z), unit_inclusion(k, z))
    report = is_artin(fp)
    assert report.verdict
    assert report.connective
    assert report.total_dimension == 2
    assert report.h0_local
    assert report.residue_is_k


def test_fiber_product_degree_two():
    k = k_slice(QQ)
    z = sq_slice(QQ, 2)
    fp = homotopy_fiber_product(unit_inclusion(k, z), unit_inclusion(k, z))
    assert full_cohomology(fp).nonzero_dims() == {0: 1, -1: 1}
    assert is_artin(fp).verdict


def test_fiber_product_along_identity():
    z = sq_slice(QQ, 1)
    fp = homotopy_fiber_product(identity_map(z), identity_map(z))
    assert full_cohomology(fp).nonzero_dims() == {0: 1, -1: 1}
    k = k_slice(QQ)
    fp2 = homotopy_fiber_product(unit_inclusion(k, z), identity_map(z))
    assert full_cohomology(fp2).nonzero_dims() == {0: 1}


def test_fiber_product_symmetry():
    k = k_slice(QQ)
    z = sq_slice(QQ, 1)
    f, g = unit_inclusion(k, z), identity_map(z)
    left = full_cohomology(homotopy_fiber_product(f, g)).nonzero_dims()
    right = full_cohomology(homotopy_fiber_product(g, f)).nonzero_dims()
    assert left == right


def test_fiber_product_refusals():
    k = k_slice(QQ)
    z1, z2 = sq_slice(QQ, 1), sq_slice(QQ, 2)
    with pytest.raises(RefusalError):
        homotopy_fiber_product(unit_inclusion(k, z1), unit_inclusion(k, z2))
    bad = DgaMap(k, z1, {"1": {"e": QQ.one}})
    with pytest.raises(RefusalError):
        homotopy_fiber_product(bad, unit_inclusion(k, z1))


def test_fiber_product_over_fp():
    f5 = Field(5)
    k = k_slice(f5)
    z = algebra_slice(square_zero(f5, 1), Window(-1, 0))
    fp = homotopy_fiber_product(unit_inclusion(k, z), unit_inclusion(k, z))
    assert full_cohomology(fp).nonzero_dims() == {0: 2}


# -- the Artin predicate ----------------------------------------------------

def test_is_artin_square_zero():
    report = is_artin(sq_slice(QQ, 1))
    assert report.verdict
    assert report.total_dimension == 2


def test_is_artin_truncated_polynomial():
    r = algebra_slice(truncated_polynomial(QQ, 3, 0), Window(0, 0))
    report = is_artin(r)
    assert report.verdict
    assert report.total_dimension == 3


def test_is_artin_rejects_positive_generator():
    a = algebra_slice(free_assoc(QQ, [("t", 2)]), Window(-1, 3))
    report = is_artin(a)
    assert not report.verdict
    assert not report.connective


def test_is_artin_refuses_uninformative_incomplete_slice():
    a = algebra_slice(free_assoc(QQ, [("t", 2)]), Window(-1, 1))
    with pytest.raises(RefusalError):
        is_artin(a)


def test_is_artin_detects_nonlocal_h0():
    one = QQ.one
    mult = {("1", "1"): {"1": one}, ("1", "w"): {"w": one},
            ("w", "1"): {"w": one}, ("w", "w"): {"w": one}}
    kxk = finite_dga_from_tables(
        QQ, Window(0, 0), {0: ("1", "w")}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True, name="k x k")
    report = is_artin(kxk)
    assert not report.verdict
    assert report.connective
    assert not report.h0_local


# -- square verification ----------------------------------------------------

def test_verify_square_archetype():
    a = algebra_slice(square_zero(QQ, 0), Window(0, 0))
    verdict = verify_square(*small_extension_square(a, 1))
    assert verdict
    assert verdict.induced is not None
    assert verdict.induced.validate_map()


def test_verify_square_degree_two():
    a = sq_slice(QQ, 1)
    assert verify_square(*small_extension_square(a, 2))


def test_verify_square_rejects_too_small_corner():
    k = k_slice(QQ)
    f, g, p, q = small_extension_square(k, 1)
    verdict = verify_square(f, g, p, q)
    assert not verdict
    assert "mismatch" in verdict.reason


def test_verify_square_rejects_noncommuting():
    z = sq_slice(QQ, 1)
    negate = DgaMap(z, z, {"1": {"1": QQ.one}, "e": {"e": QQ.neg(QQ.one)}})
    verdict = verify_square(identity_map(z), identity_map(z),
                            identity_map(z), negate)
    assert not verdict
    assert "commute" in verdict.reason


def test_verify_square_rejects_nonsurjective_leg():
    one = QQ.one
    mult = {("1", "1"): {"1": one}, ("1", "w"): {"w": one},
            ("w", "1"): {"w": one}, ("w", "w"): {"w": one}}
    kxk = finite_dga_from_tables(
        QQ, Window(0, 0), {0: ("1", "w")}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True, name="k x k")
    k = k_slice(QQ)
    f = identity_map(k)
    p = unit_inclusion(k, kxk)
    verdict = verify_square(f, f, p, p)
    assert not verdict
    assert "surjective" in verdict.reason


def test_verify_square_rejects_invalid_map():
    a = algebra_slice(square_zero(QQ, 0), Window(0, 0))
    k = k_slice(QQ)
    z = sq_slice(QQ, 1)
    f = augmentation_map(a, k)
    bad = DgaMap(k, z, {"1": {"e": QQ.one}})
    verdict = verify_square(f, f, unit_inclusion(k, z), bad)
    assert not verdict
    assert "dg algebra map" in verdict.reason


@pytest.mark.parametrize("p", [5, 32003])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_verify_square_over_fp(p, n):
    f, g, q1, q2 = small_extension_square(sq_slice(Field(p), n), n + 1)
    assert verify_square(f, g, q1, q2)
    assert len(_path_lift_space(f, q1)) == 1


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
def test_a_window_may_hide_corner_degrees_outside_the_fiber_product(field):
    """k[x]/x^3 with |x| = -2 at s = 3: the corner's x^2 sits in degree -4,
    outside the fiber product's hull, and the induced map sends it to 0.  On
    -3..3 the square holds; on -4..3, or with no window, the dims differ at
    -4."""
    a = algebra_slice(truncated_polynomial(field, 3, -2), Window(-4, 0))
    square = small_extension_square(a, 3)
    verdict = verify_square(*square, window=Window(-3, 3))
    assert verdict, verdict.reason
    assert verdict.induced.validate_map()
    assert "x^2" not in verdict.induced.images
    assert sorted(verdict.fiber_product.dims().items()) == [(-2, 1), (0, 2), (1, 1)]
    for window in (None, Window(-4, 3)):
        verdict = verify_square(*square, window=window)
        assert not verdict
        assert "first disagreement at degree -4" in verdict.reason


def _xyz(field):
    """k[x,y,z]/(x^2,y^2,z^2), in degree 0."""
    one = algebra_slice(truncated_polynomial(field, 2, 0), Window(0, 0))
    return tensor_algebra(tensor_algebra(one, one), one)


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("algebra, shift, lifts", [
    (lambda k: sq_slice(k, 0), 1, 1),
    (lambda k: sq_slice(k, 1), 2, 1),
    (lambda k: algebra_slice(truncated_polynomial(k, 3, 0), Window(0, 0)), 1, 1),
    (_xyz, 1, 3),
], ids=["k+k[0]", "k+k[1]", "cubic", "xyz"])
def test_every_path_lift_induces_a_dg_algebra_map(field, algebra, shift, lifts):
    f, g, p, q = small_extension_square(algebra(field), shift)
    fp = homotopy_fiber_product(p, q)
    sigmas = _path_lift_space(f, p)
    assert len(sigmas) == lifts
    for sigma in sigmas:
        assert _induced_map(f, g, p, fp, sigma).validate_map()


# -- radical filtration -----------------------------------------------------

def test_radical_filtration_truncated_cubic():
    r = algebra_slice(truncated_polynomial(QQ, 3, 0), Window(0, 0))
    series = radical_filtration(r)
    assert series.radical_dims == [3, 2, 1, 0]
    assert series.length == 3
    assert series.factors == ["k", "k", "k"]


def test_radical_filtration_trivial_module():
    r = algebra_slice(truncated_polynomial(QQ, 2, 0), Window(0, 0))
    series = radical_filtration(r, trivial_module(r.as_spec()))
    assert series.radical_dims == [1, 0]
    assert series.length == 1


def test_radical_filtration_tensor_square():
    rx = algebra_slice(truncated_polynomial(QQ, 2, 0), Window(0, 0))
    ry = algebra_slice(truncated_polynomial(QQ, 2, 0), Window(0, 0))
    r = tensor_algebra(rx, ry)
    series = radical_filtration(r)
    assert series.radical_dims == [4, 3, 1, 0]
    assert series.length == 4
    assert set(series.factors) == {"k"}


@pytest.mark.parametrize("field", [QQ, Field(5)])
def test_radical_filtration_of_a_module_leaving_its_degree_0_basis_is_structural(field):
    # x acts on k[t, 1/t] through the one-letter words of k<t>, so it sends
    # 1 to t, which lies in degree 2
    r = algebra_slice(truncated_polynomial(field, 3, 0), Window(0, 0))
    with pytest.raises(StructuralError, match=(
            r"^k\[t,1/t:2\]: 'x' acting on '1' gives 't', "
            r"outside the module's degree-0 basis$")):
        radical_filtration(r, laurent_module(field, 2))


def test_radical_filtration_refuses_idempotents():
    one = QQ.one
    mult = {("1", "1"): {"1": one}, ("1", "w"): {"w": one},
            ("w", "1"): {"w": one}, ("w", "w"): {"w": one}}
    kxk = finite_dga_from_tables(
        QQ, Window(0, 0), {0: ("1", "w")}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True, name="k x k")
    with pytest.raises(RefusalError):
        radical_filtration(kxk)


def test_radical_filtration_refuses_graded_input():
    with pytest.raises(RefusalError):
        radical_filtration(sq_slice(QQ, 1))


# -- towers -----------------------------------------------------------------

def test_tower_single_step():
    a = algebra_slice(square_zero(QQ, 0), Window(0, 0))
    k = k_slice(QQ)
    z = sq_slice(QQ, 1)
    tower = TowerSpec([TowerStep(augmentation_map(a, k), 1,
                                 unit_inclusion(k, z))])
    verdict = verify_tower(tower)
    assert verdict
    assert len(verdict.step_verdicts) == 1


def test_tower_wrong_attachment_fails():
    # claiming k + k[1] is cut out of k by a degree-1 attachment is false
    a = sq_slice(QQ, 1)
    k = k_slice(QQ)
    z = sq_slice(QQ, 1)
    tower = TowerSpec([TowerStep(augmentation_map(a, k), 1,
                                 unit_inclusion(k, z))])
    verdict = verify_tower(tower)
    assert not verdict
    assert "step 0" in verdict.reason


def test_tower_must_end_at_k():
    a = algebra_slice(square_zero(QQ, 0), Window(0, 0))
    z = sq_slice(QQ, 1)
    k = k_slice(QQ)
    embed = DgaMap(a, z, {"1": {"1": QQ.one}})
    tower = TowerSpec([TowerStep(embed, 1, unit_inclusion(k, z))])
    verdict = verify_tower(tower)
    assert not verdict
    assert "base field" in verdict.reason


def test_tower_structural_refusals():
    with pytest.raises(RefusalError):
        TowerSpec([])
    a = algebra_slice(square_zero(QQ, 0), Window(0, 0))
    k = k_slice(QQ)
    z = sq_slice(QQ, 1)
    with pytest.raises(RefusalError):
        TowerStep(augmentation_map(a, k), 0, unit_inclusion(k, z))
