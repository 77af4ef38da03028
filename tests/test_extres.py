"""Minimal resolutions and the Ext dimensions they count.

The resolution runs in ints on index vectors (koszul.extres).  The
reference below is the label-level resolution it replaced: the
differential of a (x) g read term by term from gens in field arithmetic,
each stage assembled by complex_from_labels and the products U.Z^t summed
label by label.  Its generators, deltas (scalar types included) and stage
matrices must be exactly the engine's.
"""

from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from koszul import extres
from koszul.exactla import (
    QQ, Field, Window, RefusalError, StructuralError, complex_from_labels,
    vec_add_into,
)
from koszul.dga import (
    FiniteDga, square_zero, truncated_polynomial, free_assoc, algebra_slice,
    finite_dga_from_tables, tensor_algebra, connective_cover,
)
from koszul.dual import dual_cohomology_dims
from koszul.extres import minimal_resolution, ext_dims
from koszul.artin import (
    k_slice, unit_inclusion, augmentation_map, homotopy_fiber_product, is_artin,
)

F5, F32003 = Field(5), Field(32003)

# the one label of the augmentation's target k in the degree-0 stage
_K = "k"


class Reference:
    """The label-level differential of a resolution with generators gens
    over the algebra a: basis a (x) g in degree |a| + |g|, and
    d(a (x) g) = da (x) g + (-1)^{|a|} a delta(g)."""

    def __init__(self, a, gens):
        self.a = a
        self.gens = gens
        self.degree = {g: s for g, s, _ in gens}
        self.delta = {g: delta for g, _, delta in gens}

    def basis(self, t):
        return tuple((x, g) for g, s, _ in self.gens for x in self.a.labels(t - s))

    def terms(self, label):
        """d(a (x) g) as (label, scalar) terms; repeated labels add up."""
        a_ = self.a
        field = a_.field
        a, g = label
        for a2, c in a_.diff(a).items():
            yield (a2, g), c
        odd = a_.degree(a) % 2
        for (b, g2), c in self.delta[g].items():
            for ab, c2 in a_.mult(a, b).items():
                c3 = field.mul(c, c2)
                yield (ab, g2), field.neg(c3) if odd else c3

    def diff_lc(self, lc):
        field = self.a.field
        out = {}
        for p, c in lc.items():
            for q, c2 in self.terms(p):
                vec_add_into(field, out, {q: c2}, c)
        return out


def _vector(basis, terms, field):
    """Index vector of the sum of (label, scalar) terms over basis."""
    index = {l: i for i, l in enumerate(basis)}
    out = {}
    for label, c in terms:
        i = index[label]
        out[i] = field.add(out.get(i, field.zero), c)
    return {i: c for i, c in out.items() if not field.is_zero(c)}


def _act(a, u, z):
    """u.z as (label, scalar) terms, u a lincomb over A^0, z one over
    resolution labels."""
    mul = a.field.mul
    for s, c in u.items():
        for (b, g), c2 in z.items():
            for sb, c3 in a.mult(s, b).items():
                yield (sb, g), mul(mul(c, c2), c3)


def reference_resolution(fdga, depth):
    """The label-level stage loop: (gens, {t: (d_{t-1}, d_t)})."""
    a = connective_cover(fdga)
    field = a.field
    gens = [("g0", 0, {})]
    ref = Reference(a, gens)
    complement = extres._indecomposables(a)
    stages = {}

    def boundary(p):  # the cone's d: d on the resolution, eps on degree 0
        yield from ref.terms(p)
        if p[1] == "g0" and not field.is_zero(eps := a.aug_of(p[0])):
            yield _K, eps

    for t in range(0, -depth, -1):
        basis = {d: ref.basis(d) for d in (t - 1, t, t + 1)}
        if not basis[t]:
            continue
        if t == 0:
            basis[1] = (_K,)
        stage = complex_from_labels(field, Window(t - 1, t + 1), basis, boundary)
        stages[t] = (stage.d_at(t - 1), stage.d_at(t))
        cycles = stage.d_at(t).nullspace_basis()
        span = stage.d_at(t - 1).eliminate()[0]
        labels = basis[t]
        lcs = [{labels[i]: c for i, c in z.items()} for z in cycles]
        for u in complement:
            for z in lcs:
                span.insert(_vector(labels, _act(a, u, z), field))
        for z, lc in zip(cycles, lcs):
            if not span.insert(z):
                continue
            unit = {}
            for (x, g), c in lc.items():
                if ref.degree[g] == t:
                    vec_add_into(field, unit, {g: a.aug_of(x)}, c)
            if unit:
                raise StructuralError(
                    f"resolution lost minimality at degree {t}: a defect "
                    f"class has unit component on generator {next(iter(unit))!r}")
            label = f"g{len(gens)}"
            gens.append((label, t - 1, lc))
            ref.degree[label], ref.delta[label] = t - 1, lc
    return gens, stages


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
    assert [s for _, s, _ in res.gens] == [0, -1, -2, -3, -4, -5, -6]
    g1 = res.gens[1]
    assert g1[1] == -1
    assert set(g1[2]) == {("e", "g0")}


def test_square_zero_degree_one_generators_at_even_depths():
    res = minimal_resolution(sq_slice(QQ, 1), 6)
    assert [s for _, s, _ in res.gens] == [0, -2, -4, -6]


def test_a_stage_reads_only_the_generators_of_its_degrees(monkeypatch):
    """Each stage reads only the generators with a basis element in its
    degrees, so FiniteDga.dim is called a number of times linear in the
    window's width, not once per generator per stage.  k + k[2] has one
    generator in every third degree."""
    dim, calls = FiniteDga.dim, []

    def counted(self, d):
        calls.append(d)
        return dim(self, d)

    monkeypatch.setattr(FiniteDga, "dim", counted)
    counts = []
    for width in (150, 300, 600):
        calls.clear()
        assert ext_dims(sq_slice(QQ, 2), Window(0, width)) == {
            d: int(d % 3 == 0) for d in range(width + 1)}
        counts.append(len(calls))
    assert counts[2] - counts[1] == 2 * (counts[1] - counts[0])
    res = minimal_resolution(sq_slice(QQ, 2), 9)
    assert [s for _, s, _ in res.gens] == [0, -3, -6, -9]


def test_truncated_cubic_generator_deltas_alternate():
    res = minimal_resolution(trunc_slice(QQ, 3), 5)
    assert [s for _, s, _ in res.gens] == [0, -1, -2, -3, -4, -5]
    deltas = [set(z) for _, _, z in res.gens[1:]]
    assert deltas[0] == {("x", "g0")}
    assert deltas[1] == {("x^2", "g1")}
    assert deltas[2] == {("x", "g2")}
    assert deltas[3] == {("x^2", "g3")}


def test_resolution_differential_squares_to_zero():
    res = minimal_resolution(trunc_slice(QQ, 3), 4)
    ref = Reference(res.algebra, res.gens)
    for t in range(0, -5, -1):
        for p in ref.basis(t):
            dd = ref.diff_lc(ref.diff_lc({p: Fraction(1)}))
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
    ref = Reference(res.algebra, res.gens)
    for t in range(0, -5, -1):
        for p in ref.basis(t):
            assert ref.diff_lc(ref.diff_lc({p: field.one})) == {}


def _exterior(field, n):
    """k[x_1..x_n]/(x_j^2), in degree 0."""
    one = algebra_slice(truncated_polynomial(field, 2, 0), Window(0, 0))
    a = one
    for _ in range(n - 1):
        a = tensor_algebra(a, one)
    return a


def _scaled_cubic(field, c):
    """k{1, x, y} in degree 0 with x.x = c y: the table's denominator is not 1."""
    one = field.one
    labels = ("1", "x", "y")
    mult = {("1", l): {l: one} for l in labels}
    mult.update({(l, "1"): {l: one} for l in labels if l != "1"})
    mult[("x", "x")] = {"y": c}
    return finite_dga_from_tables(field, Window(0, 0), {0: labels}, diff={}, mult_table=mult,
                                  unit="1", aug={"1": one}, complete=True, name="scaled cubic")


def _two_squares(field, c):
    """k{1, x, y, w} in degree 0 with x.x = w, y.y = c w and xy = yx = 0:
    for c = 2/3 the cycle y (x) g2 - (2/3) x (x) g1 becomes a delta whose
    own scale is 3."""
    one = field.one
    labels = ("1", "x", "y", "w")
    mult = {("1", l): {l: one} for l in labels}
    mult.update({(l, "1"): {l: one} for l in labels if l != "1"})
    mult[("x", "x")], mult[("y", "y")] = {"w": one}, {"w": c}
    return finite_dga_from_tables(field, Window(0, 0), {0: labels}, diff={}, mult_table=mult,
                                  unit="1", aug={"1": one}, complete=True, name="two squares")


def _cone(field):
    """The A of test_a_letter_with_a_differential_enters_the_resolution."""
    one = field.one
    mult = {("1", l): {l: one} for l in ("1", "t", "s")}
    mult.update({(l, "1"): {l: one} for l in ("t", "s")})
    return finite_dga_from_tables(
        field, Window(-2, 0), {-2: ("s",), -1: ("t",), 0: ("1",)}, diff={"s": {"t": one}},
        mult_table=mult, unit="1", aug={"1": one}, complete=True, name="cone")


CASES = {
    "xyz": (lambda f: xyz_table(f, XYZ), 6),
    "xyz-permuted": (lambda f: xyz_table(f, ("yz", "x", "xyz", "z", "xy", "y", "xz")), 5),
    "exterior-4": (lambda f: _exterior(f, 4), 4),
    "x^3": (lambda f: trunc_slice(f, 3), 6),
    "x^4": (lambda f: trunc_slice(f, 4), 6),
    "square-zero-0": (lambda f: sq_slice(f, 0), 6),
    "square-zero-1": (lambda f: sq_slice(f, 1), 6),
    "square-zero-2": (lambda f: sq_slice(f, 2), 7),
    "cone": (_cone, 5),
    # two odd letters whose product is not zero: the sign (-1)^{|a|}
    "odd-exterior": (lambda f: tensor_algebra(sq_slice(f, 1), sq_slice(f, 1)), 6),
}


def _recorded_resolution(monkeypatch, fdga, depth):
    """minimal_resolution, with the stage pairs it built: (state, {t: (d_{t-1}, d_t)})."""
    stages = {}
    stage = extres._stage

    def recording(table, state, t, blocks):
        stages[t] = stage(table, state, t, blocks)
        return stages[t]

    monkeypatch.setattr(extres, "_stage", recording)
    return minimal_resolution(fdga, depth), stages


def _typed(gens):
    return [(g, s, [(k, type(c), c) for k, c in delta.items()]) for g, s, delta in gens]


def _assert_same_as_reference(monkeypatch, fdga, depth):
    state, stages = _recorded_resolution(monkeypatch, fdga, depth)
    gens, reference = reference_resolution(fdga, depth)
    assert _typed(state.gens) == _typed(gens)
    assert set(reference) == set(stages)
    for t, pair in reference.items():
        for built, expected in zip(stages[t], pair):
            assert (built.rows, built.cols, built.scale, built.int_columns) == (
                expected.rows, expected.cols, expected.scale, expected.int_columns)


@pytest.mark.parametrize("field", [QQ, F32003, F5], ids=["Q", "F32003", "F5"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_resolution_is_the_label_level_reference(monkeypatch, field, case):
    make, depth = CASES[case]
    _assert_same_as_reference(monkeypatch, make(field), depth)


@pytest.mark.parametrize("c", [Fraction(2, 3), Fraction(-3, 2), Fraction(1)])
def test_scaled_resolutions_are_the_reference(monkeypatch, c):
    """Over Q with c = 2/3 or -3/2 the table's denominator D is not 1, and
    on the two squares neither is a delta's own scale."""
    _assert_same_as_reference(monkeypatch, _scaled_cubic(QQ, c), 7)
    _assert_same_as_reference(monkeypatch, _two_squares(QQ, c), 5)


def test_a_lost_minimality_is_raised(monkeypatch):
    """k x k is not local; blessed as Artin anyway, its second stage has a
    cycle with a unit component, 1 (x) g1 - u (x) g1, that nothing kills."""
    one = QQ.one
    mult = {("1", "1"): {"1": one}, ("1", "u"): {"u": one},
            ("u", "1"): {"u": one}, ("u", "u"): {"u": one}}
    two_points = finite_dga_from_tables(
        QQ, Window(0, 0), {0: ("1", "u")}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True, name="k x k")
    monkeypatch.setattr(extres, "is_artin", lambda fdga: SimpleNamespace(verdict=True))
    message = "resolution lost minimality at degree -1: a defect class has unit component " \
        "on generator 'g1'"
    with pytest.raises(StructuralError, match=message):
        minimal_resolution(two_points, 3)
    with pytest.raises(StructuralError, match=message):
        reference_resolution(two_points, 3)
