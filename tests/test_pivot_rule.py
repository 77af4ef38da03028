"""The pivot rule of SpanTracker: answers that must not depend on it, and
the fill-in it leaves.

Which entry of a vector leads its pivot is a free parameter of the
elimination: kernels, representatives, class coordinates and ring
constants depend only on the column order and on span membership.  The
expected answers below were captured under the smallest-index rule, before
the largest-index rule replaced it, and are checked with their scalar
types.  The fill-in guards pin the stored pivot entries of the largest
differential of four complexes, so that a rule which brings fill-in back
on transposed or multi-generator matrices fails here.
"""

from fractions import Fraction

import pytest

from koszul.bar import bar_complex, two_sided_bar
from koszul.dga import algebra_slice, tensor_algebra, truncated_polynomial
from koszul.dgmod import trivial_module
from koszul.dual import dual_cohomology_ring, koszul_dual_slice
from koszul.exactla import QQ, Field, Window, vec_add_into

FIELDS = [pytest.param(QQ, id="Q"), pytest.param(Field(32003), id="F32003")]


def _exterior2(field):
    one = algebra_slice(truncated_polynomial(field, 2, 0), Window(0, 0))
    return tensor_algebra(one, one).as_spec()


def _check(field, vec, expected):
    """vec has the field's scalar type and equals expected, ints read in
    the field."""
    scalar = Fraction if field.p is None else int
    assert all(type(x) is scalar for x in vec.values())
    assert vec == {i: field.of_int(c) for i, c in expected.items()}


def _ones(*indices):
    return dict.fromkeys(indices, 1)


# representatives of the dual of k[x]/x^3 on [0, 9], one per degree
DUAL_REPS = {
    0: _ones(0), 1: _ones(0), 2: _ones(1, 2), 3: _ones(1, 2),
    4: _ones(5, 6, 9, 10), 5: _ones(5, 6, 9, 10),
    6: _ones(21, 22, 25, 26, 37, 38, 41, 42),
    7: _ones(21, 22, 25, 26, 37, 38, 41, 42),
    8: _ones(85, 86, 89, 90, 101, 102, 105, 106,
             149, 150, 153, 154, 165, 166, 169, 170),
    9: _ones(85, 86, 89, 90, 101, 102, 105, 106,
             149, 150, 153, 154, 165, 166, 169, 170),
}

# representatives of the bar of k[x]/x^3 on [-6, 0], one per degree
BAR_REPS = {-6: {21: 1}, -5: {10: 1}, -4: {5: 1}, -3: {2: 1},
            -2: {1: 1}, -1: {0: 1}, 0: {0: 1}}

# kernel of d_{-4} (8x16) of that bar, in column order
BAR_KERNEL = [
    {5: 1}, {6: 1}, {7: 1}, {8: 1, 1: -1, 4: -1, 2: 1}, {9: 1, 3: 1}, {10: 1},
    {11: 1}, {12: 1, 3: -1}, {13: 1}, {14: 1}, {15: 1},
]


@pytest.mark.parametrize("field", FIELDS)
def test_ring_constants_match_the_capture(field):
    """Ring constants of the dual of k[x]/x^3 on [0, 9]: the product of the
    degree-a and degree-b representatives is the degree-(a+b) one, or zero
    when a and b are both odd; pairs past degree 9 are skipped."""
    report = dual_cohomology_ring(truncated_polynomial(field, 3, 0), Window(0, 9))
    assert {d: len(r) for d, r in report.representatives.items()} == dict.fromkeys(range(10), 1)
    for d, (rep,) in report.representatives.items():
        _check(field, rep, DUAL_REPS[d])
    expected = {((a, 0), (b, 0)): {} if a % 2 and b % 2 else {(a + b, 0): 1}
                for a in range(10) for b in range(10) if a + b <= 9}
    assert report.ring.keys() == expected.keys()
    for pair, product in report.ring.items():
        _check(field, product, expected[pair])
    assert report.ring_skipped == tuple(
        (a, b, a + b) for a in range(1, 10) for b in range(1, 10) if a + b > 9)


@pytest.mark.parametrize("field", FIELDS)
def test_bar_representatives_kernel_and_coords_match_the_capture(field):
    cubic = truncated_polynomial(field, 3, 0)
    complex_ = bar_complex(cubic, Window(-6, 0)).complex
    report = complex_.cohomology()
    assert report.representatives.keys() == BAR_REPS.keys()
    for d, (rep,) in report.representatives.items():
        _check(field, rep, BAR_REPS[d])

    kernel = complex_.d_at(-4).nullspace_basis()
    assert len(kernel) == len(BAR_KERNEL)
    for got, want in zip(kernel, BAR_KERNEL):
        _check(field, got, want)

    cocycle = {}
    for i, v in enumerate(kernel):
        vec_add_into(field, cocycle, v, field.of_int(i + 2))
    vec_add_into(field, cocycle, report.representatives[-4][0], field.of_int(7))
    _check(field, report.coords(-4, cocycle), {0: 25})


@pytest.mark.parametrize("field", FIELDS)
def test_coords_on_a_multi_generator_bar_match_the_capture(field):
    """Class coordinates in a four-dimensional H^{-3}: the bar of
    k[x,y]/(x^2,y^2) on [-4, 0], at the cocycle sum((i+1) * kernel[i])."""
    complex_ = bar_complex(_exterior2(field), Window(-4, 0)).complex
    report = complex_.cohomology()
    assert report.dims == {-4: 5, -3: 4, -2: 3, -1: 2, 0: 1}
    cocycle = {}
    for i, v in enumerate(complex_.d_at(-3).nullspace_basis()):
        vec_add_into(field, cocycle, v, field.of_int(i + 1))
    _check(field, report.coords(-3, cocycle), {0: 1, 1: 6, 2: 8, 3: 9})


def _largest_fill(complex_):
    """(degree, stored pivot entries) of the column elimination of the
    differential with the most entries."""
    d, m = max(complex_.diff.items(), key=lambda dm: len(dm[1].entries))
    return d, sum(len(vec) for vec, _ in m.eliminate()[0].pivots.values())


@pytest.mark.parametrize("field", FIELDS)
def test_pivot_fill_in_on_four_matrix_shapes(field):
    """Bar, its transpose (the Koszul dual), the two-sided bar B(k, A, k)
    and a two-generator bar.  Under the smallest-index rule these read
    5345, 8515, 5345 and 1502."""
    cubic = truncated_polynomial(field, 3, 0)
    k = trivial_module(cubic)
    assert _largest_fill(bar_complex(cubic, Window(-10, 0)).complex) == (-11, 2275)
    assert _largest_fill(koszul_dual_slice(cubic, Window(0, 10)).algebra.complex()) == (10, 4624)
    assert _largest_fill(two_sided_bar(k, cubic, k, Window(-10, 0)).complex) == (-11, 2275)
    assert _largest_fill(bar_complex(_exterior2(field), Window(-6, 0)).complex) == (-7, 1438)
