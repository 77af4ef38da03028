"""Self-test of the benchmark's closed-form references at tiny windows.

The references are written out by hand first, then compared with the
engine on windows small enough to run in well under a second; a reference
that drifted from the mathematics would fail here before it could pass or
fail a benchmark run.
"""

from koszul.bar import bar_homology_dims
from koszul.dga import algebra_slice, square_zero, truncated_polynomial
from koszul.dual import (
    bidual_cohomology, check_power_generation, dual_cohomology_dims,
    dual_cohomology_ring,
)
from koszul.exactla import QQ, Field, Window
from koszul.extres import ext_dims
from koszul.artin import radical_filtration, small_extension_square, verify_square

import jobs
import refs


def test_references_by_hand():
    assert refs.tor_exterior(1, -3, 1) == {-3: 1, -2: 1, -1: 1, 0: 1, 1: 0}
    assert refs.tor_exterior(2, -3, 0) == {-3: 4, -2: 3, -1: 2, 0: 1}
    assert refs.ext_exterior(3, 0, 3) == {0: 1, 1: 3, 2: 6, 3: 10}
    assert refs.ext_square_zero(1, -1, 4) == {-1: 0, 0: 1, 1: 0, 2: 1, 3: 0, 4: 1}
    assert refs.tor_square_zero(2, -6, 0) == {-6: 1, -5: 0, -4: 0, -3: 1,
                                             -2: 0, -1: 0, 0: 1}
    assert refs.input_square_zero(2, -4, 1) == {-4: 0, -3: 0, -2: 1, -1: 0,
                                                0: 1, 1: 0}
    assert refs.tor_free_one(1, 0, 2) == {0: 1, 1: 1, 2: 0}
    assert refs.radical_dims_exterior(3) == [8, 7, 4, 1, 0]
    assert refs.radical_dims_exterior(1) == [2, 1, 0]
    assert refs.cubic_ring_facts({((1, 0), (1, 0)): {}, ((2, 0), (2, 0)): {(4, 0): 1}})
    assert not refs.cubic_ring_facts({((1, 0), (1, 0)): {(2, 0): 1},
                                      ((2, 0), (2, 0)): {(4, 0): 1}})
    assert not refs.cubic_ring_facts({((2, 0), (2, 0)): {(4, 0): 1}})


def test_references_match_the_engine_on_tiny_windows():
    f5 = Field(5)
    for field in (QQ, f5):
        cubic = truncated_polynomial(field, 3, 0)
        assert bar_homology_dims(cubic, Window(-3, 0)) == refs.tor_exterior(1, -3, 0)
        assert dual_cohomology_dims(cubic, Window(0, 3)) == refs.ext_exterior(1, 0, 3)
        xy = jobs._exterior(field, 2)
        assert bar_homology_dims(xy.as_spec(), Window(-3, 0)) \
            == refs.tor_exterior(2, -3, 0)
    c = jobs.SCALED_C[0]
    scaled = jobs._scaled_cubic(QQ, c).as_spec()
    assert bar_homology_dims(scaled, Window(-3, 0)) == refs.tor_exterior(1, -3, 0)
    xyz = jobs._exterior(QQ, 3)
    assert ext_dims(xyz, Window(0, 3)) == refs.ext_exterior(3, 0, 3)
    assert radical_filtration(xyz).radical_dims == refs.radical_dims_exterior(3)
    report = dual_cohomology_ring(truncated_polynomial(QQ, 3, 0), Window(0, 5))
    assert refs.cubic_ring_facts(report.ring)
    report = dual_cohomology_ring(square_zero(QQ, 1), Window(0, 6))
    assert report.dims == refs.ext_square_zero(1, 0, 6)
    assert check_power_generation(report, 2) is refs.POWER_GENERATED_SQUARE_ZERO_1
    assert bidual_cohomology(square_zero(QQ, 1), Window(-2, 1)) \
        == refs.input_square_zero(1, -2, 1)
    archetype = algebra_slice(square_zero(QQ, 0), Window(0, 0))
    assert bool(verify_square(*small_extension_square(archetype, 1))) \
        is refs.SQUARE_ARCHETYPE_VERDICT
    cubic_slice = algebra_slice(truncated_polynomial(QQ, 3, 0), Window(0, 0))
    assert bool(verify_square(*small_extension_square(cubic_slice, 1))) \
        is refs.SQUARE_CUBIC_VERDICT
