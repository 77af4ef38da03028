"""Module layer tests: Koszul complexes and their filtration certificate,
strict vs derived tensor, Laurent modules, the t-action fiber."""

import pytest
from hypothesis import given, settings, strategies as st

from koszul.exactla import Window, QQ, Field, RefusalError, StructuralError
from koszul.dga import square_zero, free_assoc
from koszul.dgmod import (
    DgModuleSpec, trivial_module, zero_module, regular_module,
    laurent_module, koszul_complex, module_slice, validate_module,
    verify_free_filtration, strict_tensor, derived_tensor_dims,
    rhom_from_k_dims,
)

F5 = Field(5)


def nonzero(dims):
    return {d: n for d, n in dims.items() if n}


# ---------------------------------------------------------------------------
# basic builders


def test_trivial_regular_zero_validate():
    spec = square_zero(QQ, 1)
    w = Window(-4, 4)
    assert validate_module(trivial_module(spec), w)
    assert validate_module(regular_module(spec), w)
    assert validate_module(zero_module(spec), w)


def test_module_slice_shape():
    spec = square_zero(QQ, 1)
    s = module_slice(regular_module(spec), Window(-2, 1))
    assert s.dims() == {-1: 1, 0: 1}
    s.validate_complex()


def test_laurent_module():
    lau = laurent_module(QQ, 2)
    assert validate_module(lau, Window(-6, 6))
    assert lau.basis(4) == ("t^2",) and lau.basis(3) == ()
    assert lau.basis(-2) == ("t^-1",)
    assert lau.left_act("t*t", "t^-1") == {"t": QQ.one}
    with pytest.raises(RefusalError):
        laurent_module(QQ, 3)
    with pytest.raises(RefusalError):
        laurent_module(QQ, 0)


# ---------------------------------------------------------------------------
# Koszul complexes


@pytest.mark.parametrize("n", range(5))
def test_koszul_complex_validates(n):
    kos = koszul_complex(QQ, n)
    w = Window(-1, 3 * (n + 1) + 1)
    assert validate_module(kos, w)
    module_slice(kos, w).validate_complex()


@pytest.mark.parametrize("n", range(5))
def test_koszul_cohomology_is_k(n):
    kos = koszul_complex(QQ, n)
    w = Window(-1, 3 * (n + 1) + 1)
    rep = module_slice(kos, w).cohomology(representatives=False)
    assert rep.nonzero_dims() == {0: 1}


def test_koszul_complex_labels():
    kos = koszul_complex(QQ, 1)
    assert kos.basis(0) == ("z",)
    assert kos.basis(1) == ("1",)
    assert kos.basis(2) == ("uz",)
    assert kos.basis(4) == ("u^2z",)
    assert kos.diff("1") == {"uz": QQ.one}
    assert kos.diff("u^2z") == {}
    with pytest.raises(RefusalError):
        koszul_complex(QQ, -1)


def test_koszul_bimodule_signs():
    # n = 0: u carries a sign onto the non-z part, z picks one up per u
    kos = koszul_complex(QQ, 0)
    minus = QQ.neg(QQ.one)
    assert kos.left_act("u", "1") == {"u": minus}
    assert kos.left_act("u", "z") == {"uz": QQ.one}
    assert kos.right_act("u", "e") == {"uz": minus}
    assert kos.right_act("z", "e") == {}


def test_validate_module_catches_broken_unit():
    kos = koszul_complex(QQ, 1)
    broken = DgModuleSpec(
        QQ, "broken", kos.algebra, "left",
        basis=kos.basis, degree=kos.degree, diff=kos.diff,
        left_act=lambda a, m: {} if a == "1" else kos.left_act(a, m),
        min_degree=0)
    report = validate_module(broken, Window(0, 4))
    assert not report.checks["left_unit"]


def test_validate_module_catches_broken_bimodule():
    kos = koszul_complex(QQ, 0)

    def flat_right(m, y):
        if y == "1":
            return {m: QQ.one}
        if m.endswith("z"):
            return {}
        return {(m + "z") if m != "1" else "z": QQ.one}  # sign dropped

    broken = DgModuleSpec(
        QQ, "broken", kos.algebra, "bi",
        basis=kos.basis, degree=kos.degree, diff=kos.diff,
        left_act=kos.left_act, right_act=flat_right,
        right_algebra=kos.right_algebra, min_degree=0)
    report = validate_module(broken, Window(-1, 4))
    assert not report.checks["bimodule"]


def _broken_kos0(side):
    """Kos(0) with two products changed on each side it acts from: on the
    left 1.1 = 0 and u.z = u, on the right z.e = 1 and uz.1 = 0.  Each
    side's Leibniz rule then fails both at (1, 1) and at a pair met first
    when the loops are nested the other way round, (u, z) on the left and
    (z, e) on the right."""
    kos = koszul_complex(QQ, 0)

    def left_act(x, m):
        if (x, m) == ("1", "1"):
            return {}
        if (x, m) == ("u", "z"):
            return {"u": QQ.one}
        return kos.left_act(x, m)

    def right_act(m, y):
        if (m, y) == ("z", "e"):
            return {"1": QQ.one}
        if (m, y) == ("uz", "1"):
            return {}
        return kos.right_act(m, y)

    return DgModuleSpec(
        QQ, "broken", kos.algebra, side,
        basis=kos.basis, degree=kos.degree, diff=kos.diff,
        left_act=left_act if side != "right" else None,
        right_act=right_act if side != "left" else None,
        right_algebra=kos.right_algebra, min_degree=0)


LEFT_WITNESSES = {"left_leibniz": ("1", "1"), "left_associative": ("u", "1", "1"),
                  "left_unit": ("1",)}
RIGHT_WITNESSES = {"right_leibniz": ("1", "1"), "right_associative": ("u", "e", "1"),
                   "right_unit": ("uz",)}


@pytest.mark.parametrize("side, witnesses", [
    ("left", LEFT_WITNESSES),
    ("right", RIGHT_WITNESSES),
    ("bi", {**LEFT_WITNESSES, **RIGHT_WITNESSES, "bimodule": ("1", "z", "e")}),
])
def test_validate_module_keeps_the_first_witness_of_each_check(side, witnesses):
    # the algebra element is the outer loop and the module element the
    # inner one, on either side: (a, m) for the left Leibniz rule, (m, b)
    # for the right, (a, b, m), (m, b, c) and (a, m, b) for the three
    # associativities
    report = validate_module(_broken_kos0(side), Window(-1, 3))
    assert report.checks["d_squared"]
    assert report.witnesses == witnesses
    assert not any(report.checks[name] for name in witnesses)


# ---------------------------------------------------------------------------
# filtration certificate and the two tensors


@pytest.mark.parametrize("n", range(5))
def test_free_filtration_certificate(n):
    kos = koszul_complex(QQ, n)
    cert = verify_free_filtration(kos, Window(0, 3 * (n + 1)))
    assert cert
    assert [s["generator_degree"] for s in cert.steps] == [0, n]
    with pytest.raises(RefusalError):
        verify_free_filtration(regular_module(square_zero(QQ, 1)), Window(-1, 0))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_strict_tensor_dims(n):
    kos = koszul_complex(QQ, n)
    w = Window(-1, n + 2)
    s = strict_tensor(kos, w)
    s.validate_complex()
    assert {d: len(ls) for d, ls in s.basis.items()} == {0: 1, n: 1}


@pytest.mark.parametrize("n", (1, 2))
def test_strict_tensor_matches_derived(n):
    kos = koszul_complex(QQ, n)
    w = Window(-1, n + 2)
    strict_h = strict_tensor(kos, w).cohomology(representatives=False)
    base = kos.algebra
    k = trivial_module(base)
    derived = derived_tensor_dims(k, base, k, Window(0, n + 1))
    assert strict_h.nonzero_dims() == nonzero(derived) == {0: 1, n: 1}


def test_strict_tensor_needs_certificate():
    with pytest.raises(RefusalError):
        strict_tensor(regular_module(square_zero(QQ, 1)), Window(-1, 0))


@settings(max_examples=10, deadline=None)
@given(n=st.integers(0, 4), p=st.sampled_from([None, 5]))
def test_koszul_cohomology_any_field(n, p):
    field = QQ if p is None else Field(p)
    kos = koszul_complex(field, n)
    w = Window(-1, 2 * (n + 1) + 1)
    rep = module_slice(kos, w).cohomology(representatives=False)
    assert rep.nonzero_dims() == {0: 1}


# ---------------------------------------------------------------------------
# the t-action fiber (RHom from k)


def test_rhom_from_k_on_laurent_vanishes():
    lau = laurent_module(QQ, 2)
    assert rhom_from_k_dims(lau, Window(-6, 6)) == {d: 0 for d in range(-6, 7)}


def test_rhom_from_k_on_free_rank_one():
    base = free_assoc(QQ, [("t", 2)])
    dims = rhom_from_k_dims(regular_module(base), Window(-6, 6))
    assert nonzero(dims) == {-1: 1}


def test_rhom_refusals():
    two_gen = free_assoc(QQ, [("t", 2), ("s", 4)])
    with pytest.raises(RefusalError):
        rhom_from_k_dims(regular_module(two_gen), Window(-2, 2))


def test_differential_outside_the_next_basis_is_structural():
    # d(a) names "ghost", which no degree of the module lists
    base = free_assoc(QQ, [("t", 2)])
    table = {0: ("a",), 1: ("b",)}
    mod = DgModuleSpec(
        QQ, "ghostly", base, "left",
        basis=lambda d: table.get(d, ()),
        degree=lambda l: {"a": 0, "b": 1}[l],
        diff=lambda l: {"ghost": QQ.one} if l == "a" else {},
        left_act=lambda x, m: {m: QQ.one} if x == "1" else {},
        min_degree=0, max_degree=1)
    with pytest.raises(StructuralError, match="ghost"):
        module_slice(mod, Window(0, 1))
    with pytest.raises(StructuralError, match="ghost"):
        rhom_from_k_dims(mod, Window(0, 1))
