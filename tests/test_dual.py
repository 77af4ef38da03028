"""Koszul dual tests: dual slices validate as dg algebras, Ext dims, ring
power generation, biduality and its refusals."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszul import bar
from koszul.exactla import Window, QQ, Field, RefusalError
from koszul.dga import (
    base_field_algebra, square_zero, truncated_polynomial, free_assoc, algebra_slice,
    tensor_algebra, finite_dga_from_tables, cohomology_ring, FiniteDga,
)
from koszul.bar import bar_complex, bar_homology_dims
from koszul.dual import (
    koszul_dual_slice, dual_cohomology_dims, dual_cohomology_ring,
    check_power_generation, bidual_cohomology,
)

F5 = Field(5)
F32003 = Field(32003)


def nonzero(dims):
    return {d: n for d, n in dims.items() if n}


def test_dual_of_base_field():
    dims = dual_cohomology_dims(base_field_algebra(QQ), Window(0, 4))
    assert nonzero(dims) == {0: 1}


@pytest.mark.parametrize("n", range(4))
def test_dual_of_square_zero_is_free_on_one_generator(n):
    w = Window(0, 3 * (n + 1))
    dims = dual_cohomology_dims(square_zero(QQ, n), w)
    for d in w.degrees():
        assert dims[d] == (1 if d % (n + 1) == 0 else 0)


def test_dual_slices_validate():
    duals = [
        koszul_dual_slice(square_zero(QQ, 1), Window(0, 6)),
        koszul_dual_slice(truncated_polynomial(QQ, 3, 0), Window(0, 4)),
        koszul_dual_slice(free_assoc(QQ, [("u", 2)]), Window(-4, 0)),
    ]
    for dual in duals:
        report = dual.validate()
        assert report, report.witnesses


@pytest.mark.parametrize("field", (QQ, Field(32003)), ids=("Q", "F32003"))
@pytest.mark.parametrize("spec_of, window", [
    (lambda f: truncated_polynomial(f, 3, 0), Window(0, 9)),
    (lambda f: square_zero(f, 1), Window(0, 12)),
    (lambda f: free_assoc(f, [("u", 2)]), Window(-4, 0)),
], ids=("cubic", "square_zero1", "free_u2"))
def test_dual_differential_is_the_signed_transpose_of_the_bar(field, spec_of, window):
    spec = spec_of(field)
    dual = koszul_dual_slice(spec, window)
    bar = bar_complex(spec, window.mirrored()).complex
    c = dual.algebra.complex()
    assert c.window == bar.window.mirrored()
    for d in c.window.degrees():
        assert c.basis.get(d, ()) == bar.basis.get(-d, ())
        if d + 1 not in c.window:
            continue
        b = bar.d_at(-d - 1)
        sign = field.one if d % 2 == 0 else field.neg(field.one)
        want = {(j, i): field.mul(sign, v) for (i, j), v in b.entries.items()}
        got = c.d_at(d)
        assert (got.rows, got.cols) == (b.cols, b.rows)
        assert got.entries == want
        targets = c.basis.get(d + 1, ())
        for k, word in enumerate(c.basis.get(d, ())):
            column = {targets[j]: v for (j, i), v in want.items() if i == k}
            assert dual.algebra.diff(word) == column


def test_dual_unit_and_augmentation():
    dual = koszul_dual_slice(square_zero(QQ, 1), Window(0, 4))
    assert dual.algebra.unit == ()
    assert dual.algebra.aug_of(()) == QQ.one


def test_dual_dims_mirror_bar_homology():
    spec = truncated_polynomial(QQ, 3, 0)
    dual = dual_cohomology_dims(spec, Window(0, 4))
    bar = bar_homology_dims(spec, Window(-4, 0))
    assert {d: n for d, n in dual.items()} == {-d: n for d, n in bar.items()}


def test_dual_of_free_is_the_shifted_generator():
    # dual of k<u>, |u| = 2: classes at 0 and -1 (the dual lives in
    # nonpositive degrees and its differential is the transposed merge)
    dims = dual_cohomology_dims(free_assoc(QQ, [("u", 2)]), Window(-4, 0))
    assert nonzero(dims) == {0: 1, -1: 1}


def test_ring_unit_class_acts_as_identity():
    report = dual_cohomology_ring(square_zero(QQ, 1), Window(0, 6))
    for d in (2, 4):
        assert report.ring[((0, 0), (d, 0))] == {(d, 0): QQ.one}
        assert report.ring[((d, 0), (0, 0))] == {(d, 0): QQ.one}


def test_power_generation_square_zero():
    report = dual_cohomology_ring(square_zero(QQ, 1), Window(0, 10))
    assert check_power_generation(report, 2) is True
    assert check_power_generation(report, 3) is False
    report0 = dual_cohomology_ring(square_zero(QQ, 0), Window(0, 6))
    assert check_power_generation(report0, 1) is True
    report2 = dual_cohomology_ring(square_zero(QQ, 2), Window(0, 9))
    assert check_power_generation(report2, 3) is True


def test_power_generation_fails_for_truncated_cubic():
    # Ext over k[x]/x^3 is one-dimensional in every degree, but the
    # degree-1 class squares to zero in characteristic 0, so the dims-only
    # pattern for g = 1 is not witnessed by powers.
    report = dual_cohomology_ring(truncated_polynomial(QQ, 3, 0), Window(0, 6))
    assert all(report.dims[d] == 1 for d in range(0, 7))
    assert check_power_generation(report, 1) is False


def test_power_generation_refusals():
    report = dual_cohomology_ring(square_zero(QQ, 1), Window(0, 4))
    with pytest.raises(RefusalError):
        check_power_generation(report, 0)
    plain = koszul_dual_slice(square_zero(QQ, 1), Window(0, 4)).cohomology()
    with pytest.raises(RefusalError):
        check_power_generation(plain, 2)


def _scaled_cubic(field, c):
    """k[x]/x^3 on the basis 1, x, y with x.x = c.y."""
    one = field.one
    mult = {("1", "1"): {"1": one}, ("1", "x"): {"x": one}, ("x", "1"): {"x": one},
            ("1", "y"): {"y": one}, ("y", "1"): {"y": one}, ("x", "x"): {"y": c}}
    return finite_dga_from_tables(
        field, Window(0, 0), {0: ("1", "x", "y")}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True).as_spec()


def _two_term_square(field):
    """k{1, x, z, w}, x.x = 2z + 3w: the classes dual to z and w are
    represented with denominators over Q."""
    one = field.one
    mult = {("1", l): {l: one} for l in ("1", "x", "z", "w")}
    mult.update({(l, "1"): {l: one} for l in ("x", "z", "w")})
    mult[("x", "x")] = {"z": field.of_int(2), "w": field.of_int(3)}
    return finite_dga_from_tables(
        field, Window(0, 0), {0: ("1", "x", "z", "w")}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True).as_spec()


def _exterior2(field):
    one = algebra_slice(truncated_polynomial(field, 2, 0), Window(0, 0))
    return tensor_algebra(one, one).as_spec()


RINGS = [
    pytest.param(lambda: truncated_polynomial(QQ, 3, 0), Window(0, 6), id="cubic-Q"),
    pytest.param(lambda: truncated_polynomial(F32003, 3, 0), Window(0, 6), id="cubic-F32003"),
    pytest.param(lambda: truncated_polynomial(F5, 3, 0), Window(0, 6), id="cubic-F5"),
    pytest.param(lambda: _scaled_cubic(QQ, Fraction(2, 3)), Window(0, 5), id="scaled-2-over-3"),
    pytest.param(lambda: _two_term_square(QQ), Window(0, 3), id="two-term-square"),
    pytest.param(lambda: _exterior2(QQ), Window(0, 4), id="exterior-2"),
    pytest.param(lambda: square_zero(QQ, 0), Window(0, 6), id="square-zero-0"),
    pytest.param(lambda: square_zero(QQ, 1), Window(0, 8), id="square-zero-1"),
    pytest.param(lambda: square_zero(QQ, 2), Window(0, 8), id="square-zero-2"),
    pytest.param(lambda: free_assoc(QQ, [("u", 2)]), Window(-5, 0), id="free-u2"),
]


SHARING = [
    pytest.param(lambda f: truncated_polynomial(f, 3, 0), id="cubic"),
    pytest.param(lambda f: _scaled_cubic(f, f.div(f.of_int(2), f.of_int(3))), id="scaled-2-over-3"),
    pytest.param(_exterior2, id="exterior-2"),
]


@pytest.mark.parametrize("field", (QQ, F32003), ids=("Q", "F32003"))
@pytest.mark.parametrize("make", SHARING)
def test_dual_blocks_in_place_share_their_tails_columns(make, field, monkeypatch):
    """A dual block whose head sits at offset 0 of the list below and has
    no codiff or comerge term is its tails' columns, the very dicts of the
    dual's differential on the tails' degree; every other block is fresh
    dicts, held by no degree its lists are built from (those toward the
    base, where the tails lie).  Nothing writes into a shared column:
    the int columns of every dual built, copied when it is built, are
    unchanged after cohomology, class coordinates, the ring constants and
    the bidual."""
    spec, window = make(field), Window(0, 5)
    built = []
    real = bar._cobar_slice

    def recorded(chains):
        complex_ = real(chains)
        built.append((complex_, copy.deepcopy({d: m.int_columns for d, m in complex_.diff.items()})))
        return complex_

    monkeypatch.setattr(bar, "_cobar_slice", recorded)
    dual = koszul_dual_slice(spec, window)
    table = dual.chains.table
    enum, (_, codiff, comerge) = table.enum, table.co[0]
    degrees = [f for f in table.comemo if f - 1 in dual.chains.padded]
    shared = fresh = 0
    for f in degrees:
        cols, target = table.cocolumns(f), enum.blocks(f - 1)[2]
        elsewhere = {id(col) for e, other in table.comemo.items()
                     if (e > f if enum.connective else e < f) for col in other}
        for a, s, off in enum.blocks(f)[1]:
            tails = table.cocolumns(f - s)
            block = cols[off:off + len(tails)]
            assert len(block) == len(tails)
            if target.get(a) == 0 and not codiff[a] and not comerge[a]:
                assert all(col is tail for col, tail in zip(block, tails))
                shared += len(block)
            else:
                assert not any(id(col) in elsewhere for col in block)
                fresh += len(block)
    assert shared and fresh
    report = dual.cohomology()
    for d, reps in report.representatives.items():
        for i, rep in enumerate(reps):
            assert report.coords(d, rep) == {i: field.one}
    assert dual_cohomology_ring(spec, window).ring
    try:
        bidual_cohomology(spec, Window(-4, 1))
    except RefusalError:
        pass  # refused after its inner dual's cohomology was taken
    assert len(built) >= 3
    for complex_, before in built:
        assert {d: m.int_columns for d, m in complex_.diff.items()} == before


@pytest.mark.parametrize("make, window", RINGS)
def test_ring_on_index_vectors_is_the_label_ring(make, window, monkeypatch):
    """dual_cohomology_ring multiplies representatives on index vectors, in
    ints, and never calls FiniteDga.mult; cohomology_ring on the dual's
    algebra multiplies them on labels.  Both give the same representatives,
    constants and skip list, in the same order and with the same scalar
    types (the reprs tell a Fraction from an int)."""
    spec = make()
    labels = cohomology_ring(koszul_dual_slice(spec, window).algebra)

    def refuse(self, a, b):
        raise AssertionError(f"FiniteDga.mult({a!r}, {b!r}) was called")

    monkeypatch.setattr(FiniteDga, "mult", refuse)
    ints = dual_cohomology_ring(spec, window)
    assert ints.ring
    for name in ("dims", "representatives", "ring", "ring_skipped"):
        assert repr(getattr(ints, name)) == repr(getattr(labels, name)), name


def test_a_tie_reads_the_side_already_built(monkeypatch):
    """The inner dual of bidual_cohomology(k+k[2], [-4, 1]) has no chains at
    either end of its padded window, a tie, so its dims are read from the
    dual already built.  The one bar built is the outer one, of a
    coconnected algebra, whose dims are read from its smaller end."""
    built = []
    real = bar._bar_slice
    monkeypatch.setattr(bar, "_bar_slice", lambda chains: built.append(chains) or real(chains))
    dims = bidual_cohomology(square_zero(QQ, 2), Window(-4, 1))
    assert nonzero(dims) == {0: 1, -2: 1}
    assert [(c.spec.name, c.window) for c in built] == [("dual(square_zero(2))", Window(-1, 4))]


@pytest.mark.parametrize("n", (1, 2))
def test_bidual_recovers_square_zero(n):
    dims = bidual_cohomology(square_zero(QQ, n), Window(-4, 1))
    assert nonzero(dims) == {0: 1, -n: 1}


def test_bidual_refuses_square_zero_zero():
    with pytest.raises(RefusalError) as exc:
        bidual_cohomology(square_zero(QQ, 0), Window(-4, 1))
    assert "non-convergent biduality" in str(exc.value)


def test_bidual_refuses_coconnected_input():
    with pytest.raises(RefusalError) as exc:
        bidual_cohomology(free_assoc(QQ, [("u", 2)]), Window(-4, 1))
    assert "non-convergent biduality" in str(exc.value)


def test_dual_truncation_stability():
    # the dual's bar runs on the mirrored window, so widening the top by two
    # degrees raises its weight cap by two
    spec = square_zero(QQ, 1)
    w, wide = Window(0, 8), Window(0, 10)
    base = koszul_dual_slice(spec, w)
    again = koszul_dual_slice(spec, wide)
    assert again.max_weight == base.max_weight + 2
    dims = again.homology_dims()
    assert {d: dims[d] for d in w.degrees()} == base.homology_dims()


def test_dual_field_independence():
    w = Window(0, 6)
    for spec_of in (lambda f: square_zero(f, 1),
                    lambda f: truncated_polynomial(f, 2, 0)):
        assert dual_cohomology_dims(spec_of(QQ), w) \
            == dual_cohomology_dims(spec_of(F5), w)


@settings(max_examples=15, deadline=None)
@given(lo=st.integers(-2, 4), width=st.integers(0, 5))
def test_dual_square_zero_two_closed_form(lo, width):
    w = Window(lo, lo + width)
    dims = dual_cohomology_dims(square_zero(QQ, 2), w)
    for d in w.degrees():
        assert dims[d] == (1 if d >= 0 and d % 3 == 0 else 0)
