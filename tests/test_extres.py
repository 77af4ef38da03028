"""Minimal resolutions and the Ext dimensions they count."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from koszul.exactla import QQ, Field, Window, RefusalError
from koszul.dga import (
    square_zero, truncated_polynomial, free_assoc, algebra_slice,
    finite_dga_from_tables,
)
from koszul.dual import dual_cohomology_dims
from koszul.extres import minimal_resolution, ext_dims
from koszul.artin import (
    k_slice, unit_inclusion, augmentation_map, homotopy_fiber_product, is_artin,
)


def sq_slice(field, n):
    return algebra_slice(square_zero(field, n), Window(-n, 0))


def trunc_slice(field, m):
    return algebra_slice(truncated_polynomial(field, m, 0), Window(0, 0))


XYZ = ("x", "y", "z", "xy", "xz", "yz", "xyz")


def xyz_table(field, order):
    """k[x,y,z]/(x^2,y^2,z^2) as a table whose basis is 1, then order."""
    one = field.one
    labels = ("1",) + tuple(order)
    bare = {m: "" if m == "1" else m for m in labels}
    mult = {(a, b): {"".join(sorted(bare[a] + bare[b])) or "1": one}
            for a in labels for b in labels if not set(bare[a]) & set(bare[b])}
    return finite_dga_from_tables(
        field, Window(0, 0), {0: labels}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True, name="xyz")


def test_a_letter_with_a_differential_enters_the_resolution():
    """A = k{1, t, s}, |t| = -1, |s| = -2, ds = t and every product of t and
    s zero: acyclic above k, so Ext_A(k, k) = k, and the resolution's
    differential has the d(a) term of a (x) g for a = s."""
    one = QQ.one
    mult = {("1", l): {l: one} for l in ("1", "t", "s")}
    mult.update({(l, "1"): {l: one} for l in ("t", "s")})
    cone = finite_dga_from_tables(
        QQ, Window(-2, 0), {-2: ("s",), -1: ("t",), 0: ("1",)}, diff={"s": {"t": one}},
        mult_table=mult, unit="1", aug={"1": one}, complete=True, name="cone")
    assert cone.validate().ok
    assert is_artin(cone).verdict
    assert ext_dims(cone, Window(0, 3)) == {0: 1, 1: 0, 2: 0, 3: 0}


def test_resolution_of_k_is_a_single_generator():
    res = minimal_resolution(k_slice(QQ), 5)
    assert res.gens == [("g0", 0, {})]
    assert res.gen_counts() == {0: 1}


def test_square_zero_degree_zero_one_generator_per_degree():
    res = minimal_resolution(sq_slice(QQ, 0), 6)
    assert res.generator_degrees() == [0, -1, -2, -3, -4, -5, -6]
    g1 = res.gens[1]
    assert g1[1] == -1
    assert set(g1[2]) == {("e", "g0")}


def test_square_zero_degree_one_generators_at_even_depths():
    res = minimal_resolution(sq_slice(QQ, 1), 6)
    assert res.generator_degrees() == [0, -2, -4, -6]


def test_truncated_cubic_generator_deltas_alternate():
    res = minimal_resolution(trunc_slice(QQ, 3), 5)
    assert res.generator_degrees() == [0, -1, -2, -3, -4, -5]
    deltas = [set(z) for _, _, z in res.gens[1:]]
    assert deltas[0] == {("x", "g0")}
    assert deltas[1] == {("x^2", "g1")}
    assert deltas[2] == {("x", "g2")}
    assert deltas[3] == {("x^2", "g3")}


def test_resolution_differential_squares_to_zero():
    res = minimal_resolution(trunc_slice(QQ, 3), 4)
    for t in range(0, -5, -1):
        for p in res.basis(t):
            dd = res.diff_lc(res.diff_lc({p: Fraction(1)}))
            assert dd == {}


def test_resolution_is_deterministic():
    r1 = minimal_resolution(sq_slice(QQ, 1), 6)
    r2 = minimal_resolution(sq_slice(QQ, 1), 6)
    assert r1.gens == r2.gens


def test_certified_depth_is_recorded():
    res = minimal_resolution(sq_slice(QQ, 0), 4)
    assert res.certified_above == -4
    assert res.depth == 4


def test_refuses_non_artin_inputs():
    free = algebra_slice(free_assoc(QQ, [("t", 2)]), Window(-1, 3))
    with pytest.raises(RefusalError):
        minimal_resolution(free, 3)
    one = QQ.one
    mult = {("1", "1"): {"1": one}, ("1", "u"): {"u": one},
            ("u", "1"): {"u": one}, ("u", "u"): {"u": one}}
    two_points = finite_dga_from_tables(
        QQ, Window(0, 0), {0: ("1", "u")}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True, name="k x k")
    with pytest.raises(RefusalError):
        minimal_resolution(two_points, 3)


def test_refuses_negative_depth():
    with pytest.raises(RefusalError):
        minimal_resolution(k_slice(QQ), -1)


def test_ext_dims_square_zero_degree_zero_all_ones():
    dims = ext_dims(sq_slice(QQ, 0), Window(0, 6))
    assert dims == {d: 1 for d in range(0, 7)}


def test_ext_dims_square_zero_degree_one_even_pattern():
    dims = ext_dims(sq_slice(QQ, 1), Window(0, 8))
    assert dims == {d: (1 if d % 2 == 0 else 0) for d in range(0, 9)}


def test_ext_dims_truncated_cubic_all_ones():
    dims = ext_dims(trunc_slice(QQ, 3), Window(0, 6))
    assert dims == {d: 1 for d in range(0, 7)}


def test_ext_dims_negative_degrees_vanish():
    dims = ext_dims(sq_slice(QQ, 0), Window(-3, 2))
    assert dims == {-3: 0, -2: 0, -1: 0, 0: 1, 1: 1, 2: 1}


def test_ext_dims_over_prime_field():
    dims = ext_dims(sq_slice(Field(5), 1), Window(0, 6))
    assert dims == {d: (1 if d % 2 == 0 else 0) for d in range(0, 7)}


def test_ext_dims_of_fiber_product_uses_connective_cover():
    k = k_slice(QQ)
    z = sq_slice(QQ, 1)
    fp = homotopy_fiber_product(unit_inclusion(k, z), unit_inclusion(k, z))
    assert any(d > 0 for d in fp.window.degrees() if fp.dim(d))
    dims = ext_dims(fp, Window(0, 6))
    assert dims == {d: 1 for d in range(0, 7)}


def test_ext_dims_match_dual_cohomology():
    for a in (sq_slice(QQ, 1), trunc_slice(QQ, 3)):
        w = Window(0, 6)
        assert ext_dims(a, w) == dual_cohomology_dims(a.spec, w)


@given(st.permutations(XYZ), st.sampled_from([QQ, Field(5)]))
@settings(max_examples=25, deadline=None)
def test_ext_dims_do_not_depend_on_the_basis_order(order, field):
    a = xyz_table(field, order)
    assert ext_dims(a, Window(0, 4)) == {d: comb(d + 2, 2) for d in range(5)}
    res = minimal_resolution(a, 4)
    for t in range(0, -5, -1):
        for p in res.basis(t):
            assert res.diff_lc(res.diff_lc({p: field.one})) == {}
