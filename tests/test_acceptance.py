"""Acceptance suite: one test per headline criterion, exact equality only.

Each test prints a single pass line (visible with -s or -rA); pytest -v
gives the same one-line-per-criterion verdict from the test names.  All
dimension comparisons are exact integer equality; the two stated runtime
budgets are asserted with a wall clock.
"""

import random
import time

import pytest

from koszul.exactla import QQ, Field, Window, SparseMatrix, RefusalError
from koszul.dga import (
    base_field_algebra, square_zero, truncated_polynomial, free_assoc,
    opposite, algebra_slice, tensor_algebra, full_cohomology,
    connective_cover, finite_dga_from_tables,
)
from koszul.bar import two_sided_bar, derived_tensor_dims
from koszul.dual import (
    koszul_dual_slice, dual_cohomology_dims, dual_cohomology_ring,
    check_power_generation, bidual_cohomology,
)
from koszul.dgmod import (
    trivial_module, regular_module, zero_module, laurent_module,
    koszul_complex, module_slice, validate_module, verify_free_filtration,
    strict_tensor, rhom_from_k_dims,
)
from koszul.extres import ext_dims
from koszul.artin import (
    k_slice, unit_inclusion, homotopy_fiber_product, interval_algebra,
    small_extension_square, verify_square, radical_filtration,
)

from matrix_reference import transpose

F5 = Field(5)


def ok(n, text):
    print(f"criterion {n}: PASS  {text}")


def sq_slice(field, n):
    return algebra_slice(square_zero(field, n), Window(-n, 0))


def trunc_slice(field, m):
    return algebra_slice(truncated_polynomial(field, m, 0), Window(0, 0))


def cubic_listed(field, labels):
    """k[x]/x^3 as an explicit table with its basis listed in this order."""
    one = field.one
    names = ("1", "x", "x^2")
    power = {name: i for i, name in enumerate(names)}
    mult = {(a, b): {names[power[a] + power[b]]: one}
            for a in labels for b in labels if power[a] + power[b] < 3}
    return finite_dga_from_tables(
        field, Window(0, 0), {0: labels}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True,
        name=f"k[x]/x^3 as {labels}")


def nonzero(dims):
    return {d: v for d, v in dims.items() if v}


# oracle-equivalence suite shared by criteria 3 and 10d: name -> complete
# slice for the resolution oracle plus the spec whose dual is compared
def _oracle_members(field):
    k = k_slice(field)
    members = [("k", k, base_field_algebra(field))]
    for n in range(4):
        members.append((f"k+k[{n}]", sq_slice(field, n), square_zero(field, n)))
    for m in (2, 3):
        members.append((f"k[x]/x^{m}", trunc_slice(field, m),
                        truncated_polynomial(field, m, 0)))
    # the resolution must not depend on the order the basis is listed in
    shuffled = cubic_listed(field, ("1", "x^2", "x"))
    members.append((shuffled.name, shuffled, shuffled.as_spec()))
    z = sq_slice(field, 1)
    fp = homotopy_fiber_product(unit_inclusion(k, z), unit_inclusion(k, z))
    members.append(("fiber product", fp, connective_cover(fp).as_spec()))
    return members


_suite_cache = {}


def _oracle_suite(field):
    cached = _suite_cache.get(field.name)
    if cached is None:
        w = Window(0, 10)
        cached = {name: (ext_dims(fdga, w), dual_cohomology_dims(spec, w))
                  for name, fdga, spec in _oracle_members(field)}
        _suite_cache[field.name] = cached
    return cached


# -- 1 ------------------------------------------------------------------------


def test_criterion_01_free_koszul_dual():
    start = time.monotonic()
    for n in range(4):
        w = Window(0, 4 * (n + 1))
        dims = dual_cohomology_dims(square_zero(QQ, n), w)
        assert dims == {d: (1 if d % (n + 1) == 0 else 0) for d in w.degrees()}
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(1, f"dual of k+k[n] is free on one degree-(n+1) class, n=0..3 "
          f"({elapsed:.2f}s)")


# -- 2 ------------------------------------------------------------------------


def test_criterion_02_degree_two_generator():
    report = dual_cohomology_ring(square_zero(QQ, 1), Window(0, 10))
    assert check_power_generation(report, 2) is True
    ok(2, "dual of k+k[1] is generated by the powers of a degree-2 class")


# -- 3 ------------------------------------------------------------------------


def test_criterion_03_oracle_equivalence():
    suite = _oracle_suite(QQ)
    for name, (ext, dual) in suite.items():
        assert ext == dual, f"{name}: resolution and dual dims differ"
    ok(3, f"ext_dims == dual dims for {len(suite)} algebras on width-10 windows")


# -- 4 ------------------------------------------------------------------------


def test_criterion_04_koszul_complex():
    for n in range(5):
        kos = koszul_complex(QQ, n)
        w = Window(-1, 3 * (n + 1) + 1)
        assert validate_module(kos, w)
        module_slice(kos, w).validate_complex()
        cert = verify_free_filtration(kos, Window(0, 3 * (n + 1)))
        assert cert
        assert [s["generator_degree"] for s in cert.steps] == [0, n]
        h = module_slice(kos, w).cohomology(representatives=False)
        assert h.nonzero_dims() == {0: 1}
    ok(4, "Kos(n) validates, filters freely in two steps, and resolves k, "
          "n=0..4")


# -- 5 ------------------------------------------------------------------------


def test_criterion_05_dualizing_shift():
    for n in (1, 2, 3):
        kos = koszul_complex(QQ, n)
        strict = strict_tensor(kos, Window(-1, n + 2))
        assert {d: len(ls) for d, ls in strict.basis.items()} == {0: 1, n: 1}
        assert strict.cohomology(representatives=False).nonzero_dims() \
            == {0: 1, n: 1}
        base = free_assoc(QQ, [("u", n + 1)])
        k = trivial_module(base)
        derived = derived_tensor_dims(k, base, k, Window(0, n + 1))
        assert nonzero(derived) == {0: 1, n: 1}
    ok(5, "strict and derived k (x)_{k<u>} k agree on {0:1, n:1}, n=1..3")


# -- 6 ------------------------------------------------------------------------


def test_criterion_06_biduality():
    w = Window(-4, 1)
    for n in (1, 2):
        dims = bidual_cohomology(square_zero(QQ, n), w)
        assert dims == {d: (1 if d in (0, -n) else 0) for d in w.degrees()}
    start = time.monotonic()
    dims = bidual_cohomology(square_zero(QQ, 3), w)
    elapsed = time.monotonic() - start
    assert dims == {d: (1 if d in (0, -3) else 0) for d in w.degrees()}
    assert elapsed < 60.0
    with pytest.raises(RefusalError, match="non-convergent"):
        bidual_cohomology(square_zero(QQ, 0), w)
    ok(6, f"double dual returns k+k[n] on [-4,1], n=1..3, and refuses n=0 "
          f"(n=3 in {elapsed:.2f}s)")


# -- 7 ------------------------------------------------------------------------


def test_criterion_07_nonseparatedness_witness():
    w = Window(-6, 6)
    lau = rhom_from_k_dims(laurent_module(QQ, 2), w)
    assert lau == {d: 0 for d in w.degrees()}
    free = rhom_from_k_dims(regular_module(free_assoc(QQ, [("t", 2)])), w)
    assert nonzero(free) == {-1: 1}
    ok(7, "maps from k vanish into k[t,1/t] and land in exactly one degree "
          "for the free module")


# -- 8 ------------------------------------------------------------------------


def test_criterion_08_small_extension_square():
    a = algebra_slice(square_zero(QQ, 0), Window(0, 0))
    f, g, p, q = small_extension_square(a, 1)
    verdict = verify_square(f, g, p, q)
    assert verdict
    fp = verdict.fiber_product
    h = full_cohomology(fp, representatives=True)
    assert h.nonzero_dims() == {0: 2}
    for rep in h.representatives[0]:
        lc = fp.lincomb(rep, 0)
        aug = QQ.zero
        for l, c in lc.items():
            aug = QQ.add(aug, QQ.mul(fp.aug_of(l), c))
        adapted = dict(lc)
        cur = QQ.sub(adapted.get("1", QQ.zero), aug)
        if QQ.is_zero(cur):
            adapted.pop("1", None)
        else:
            adapted["1"] = cur
        if adapted:
            assert fp.mult_lc(adapted, adapted) == {}
    ok(8, "the square k[e] -> k over k -> k+k[1] verifies; the fiber product "
          "has square-zero two-dimensional H^0")


# -- 9 ------------------------------------------------------------------------


def test_criterion_09_composition_series():
    for m in (2, 3):
        r = trunc_slice(QQ, m)
        series = radical_filtration(r)
        assert series.length == m == r.total_dimension()
        assert series.factors == ["k"] * m
    ok(9, "regular composition series of k[x]/x^m has length m with factors "
          "k, m=2,3")


# -- 10 -----------------------------------------------------------------------


def test_criterion_10a_builder_slices_validate():
    slices = [
        algebra_slice(base_field_algebra(QQ), Window(0, 0)),
        *(sq_slice(QQ, n) for n in range(4)),
        trunc_slice(QQ, 2),
        trunc_slice(QQ, 3),
        algebra_slice(truncated_polynomial(QQ, 3, -2), Window(-4, 0)),
        algebra_slice(free_assoc(QQ, [("t", 2)]), Window(-1, 6)),
        algebra_slice(free_assoc(QQ, [("a", 1), ("b", 2)]), Window(0, 4)),
        algebra_slice(opposite(square_zero(QQ, 2)), Window(-2, 0)),
        interval_algebra(QQ),
        tensor_algebra(sq_slice(QQ, 1), interval_algebra(QQ)),
        sq_slice(F5, 1),
        algebra_slice(truncated_polynomial(Field(2), 3, -1), Window(-2, 0)),
    ]
    for s in slices:
        assert s.validate(), s.name
    spec = square_zero(QQ, 1)
    for mod in (trivial_module(spec), regular_module(spec), zero_module(spec)):
        assert validate_module(mod, Window(-2, 1))
    assert validate_module(laurent_module(QQ, 2), Window(-4, 4))
    ok("10a", f"{len(slices)} builder slices and 4 module builders validate")


def _on(dims, w):
    return {d: dims.get(d, 0) for d in w.degrees()}


def _dual_stable(spec, w):
    # the dual's bar runs on the mirrored window: two more degrees on top
    # raise its weight cap by two
    base = koszul_dual_slice(spec, w)
    wide = koszul_dual_slice(spec, Window(w.lo, w.hi + 2))
    assert wide.max_weight == base.max_weight + 2, spec.name
    assert _on(wide.homology_dims(), w) == base.homology_dims(), spec.name


def test_criterion_10b_truncation_stability():
    # criterion 1 duals
    for n in range(4):
        _dual_stable(square_zero(QQ, n), Window(0, 4 * (n + 1)))
    # criterion 2 ring
    w = Window(0, 10)
    report = dual_cohomology_ring(square_zero(QQ, 1), Window(0, 12))
    assert _on(report.dims, w) == dual_cohomology_dims(square_zero(QQ, 1), w)
    assert check_power_generation(report, 2) is True
    # criterion 3 dual sides
    for _, _, spec in _oracle_members(QQ):
        _dual_stable(spec, Window(0, 10))
    # criterion 5 two-sided bars, coconnected: two more degrees on top
    for n in (1, 2, 3):
        base_alg = free_assoc(QQ, [("u", n + 1)])
        k = trivial_module(base_alg)
        w = Window(0, n + 1)
        base = two_sided_bar(k, base_alg, k, w)
        wide = two_sided_bar(k, base_alg, k, Window(0, n + 3))
        assert wide.max_weight > base.max_weight
        assert _on(wide.homology_dims(), w) == base.homology_dims()
    # criterion 6 biduals: the inner dual, and the outer bar, which is
    # coconnected on the mirrored window: two more degrees at the bottom
    for n in (1, 2, 3):
        spec = square_zero(QQ, n)
        w = Window(-4, 1)
        inner_window = Window(-2, max(3, w.mirrored().padded().hi + 2))
        _dual_stable(spec, inner_window)
        assert _on(bidual_cohomology(spec, Window(-6, 1)), w) == bidual_cohomology(spec, w)
    ok("10b", "widening each window by two degrees on the side that raises "
              "its bar weight cap changes no dimensions in criteria 1-6")


def _rank_nullspace_roundtrip(field, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.3:
                    entries[(i, j)] = field.of_int(rng.randint(-5, 5))
        m = SparseMatrix(field, rows, cols, entries)
        kernel = m.nullspace_basis()
        assert m.rank() + len(kernel) == cols
        assert m.rank() == transpose(m).rank()
        for v in kernel:
            assert m.apply(v) == {}


def test_criterion_10c_random_rank_nullspace():
    _rank_nullspace_roundtrip(QQ, seed=20260816, count=1000)
    _rank_nullspace_roundtrip(F5, seed=20260817, count=1000)
    ok("10c", "rank-nullity and kernel membership on 1000 random sparse "
              "matrices over Q and over F_5")


def test_criterion_10d_field_independence():
    # criterion 1
    for n in range(4):
        w = Window(0, 4 * (n + 1))
        assert dual_cohomology_dims(square_zero(QQ, n), w) \
            == dual_cohomology_dims(square_zero(F5, n), w)
    # criterion 2
    for field in (QQ, F5):
        report = dual_cohomology_ring(square_zero(field, 1), Window(0, 10))
        assert check_power_generation(report, 2) is True
    # criterion 3
    assert _oracle_suite(QQ) == _oracle_suite(F5)
    # criterion 4
    for n in range(5):
        w = Window(-1, 3 * (n + 1) + 1)
        hq = module_slice(koszul_complex(QQ, n), w).cohomology(
            representatives=False).nonzero_dims()
        h5 = module_slice(koszul_complex(F5, n), w).cohomology(
            representatives=False).nonzero_dims()
        assert hq == h5 == {0: 1}
    # criterion 5
    for n in (1, 2, 3):
        per_field = []
        for field in (QQ, F5):
            kos = koszul_complex(field, n)
            strict = {d: len(ls)
                      for d, ls in strict_tensor(kos, Window(-1, n + 2)).basis.items()}
            base_alg = free_assoc(field, [("u", n + 1)])
            k = trivial_module(base_alg)
            derived = derived_tensor_dims(k, base_alg, k, Window(0, n + 1))
            per_field.append((strict, nonzero(derived)))
        assert per_field[0] == per_field[1] == ({0: 1, n: 1}, {0: 1, n: 1})
    ok("10d", "criteria 1-5 dimension vectors agree over Q and F_5")
