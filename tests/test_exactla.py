"""Fields, sparse matrices, complex slices."""

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszul.exactla import (
    Field, QQ, SparseMatrix, SpanTracker, Window, CochainComplexSlice,
    InvalidComplexError, RefusalError, StructuralError, complex_from_labels, vec_add_into,
    _integral_columns, _is_prime,
)

from matrix_reference import (
    compose, gauss_jordan, key, matrix_from_columns, rank as reference_rank, transpose,
)


# ---------------------------------------------------------------------------
# fields

def test_rationals_basics():
    f = QQ
    assert f.characteristic == 0
    assert f.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert f.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    assert f.format(Fraction(3, 2)) == "3/2"
    assert f.format(Fraction(4, 2)) == "2"
    assert f.parse("-3/2") == Fraction(-3, 2)


def test_prime_field_basics():
    f = Field(7)
    assert f.characteristic == 7
    assert f.of_int(-1) == 6
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.parse("10") == 3
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    # a fraction is read as the quotient in F_p: 3/2 = 3 * 3 = 4 in F_5
    assert Field(5).parse("3/2") == 4


def test_composite_characteristic_rejected():
    with pytest.raises(RefusalError):
        Field(6)
    with pytest.raises(RefusalError):
        Field(1)
    Field(2), Field(3), Field(101)  # primes fine
    for _ in range(2):  # the primality test is memoized, the refusal is not
        with pytest.raises(RefusalError, match="9 is not prime"):
            Field(9)
        assert Field(32003).p == 32003


def _trial_division(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_is_decided_by_strong_probable_prime_tests():
    """Miller-Rabin to the first 13 prime bases is deterministic below
    3 317 044 064 679 887 385 961 981 (Sorenson and Webster 2017), so a
    large prime is accepted at once and nothing at or above the bound is."""
    assert Field(2**61 - 1).p == 2**61 - 1
    with pytest.raises(RefusalError, match="561 is not prime"):
        Field(561)  # a Carmichael number: a Fermat pseudoprime to every base
    with pytest.raises(RefusalError, match="3215031751 is not prime"):
        Field(3215031751)  # the least strong pseudoprime to bases 2, 3, 5 and 7
    psi13 = 3317044064679887385961981  # strong pseudoprime to bases 2..41
    for n in (psi13, 2**89 - 1):  # a composite, and a prime above the bound
        with pytest.raises(RefusalError, match="too large"):
            Field(n)
    assert [n for n in range(3000) if _is_prime(n)] \
        == [n for n in range(3000) if _trial_division(n)]
    rnd = random.Random(61)
    for n in (rnd.randrange(10**6, 10**7) for _ in range(300)):
        assert _is_prime(n) == _trial_division(n)


small_fields = st.sampled_from([QQ, Field(2), Field(5), Field(7)])


@st.composite
def field_and_elements(draw, count):
    f = draw(small_fields)
    xs = [f.of_int(draw(st.integers(-20, 20))) for _ in range(count)]
    return f, xs


@given(field_and_elements(3))
def test_field_axioms(fx):
    f, (a, b, c) = fx
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    assert f.mul(a, f.one) == a
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one


# ---------------------------------------------------------------------------
# matrices

def test_matrix_rejects_bad_entries():
    with pytest.raises(StructuralError):
        SparseMatrix(QQ, 2, 2, {(2, 0): Fraction(1)})
    with pytest.raises(StructuralError):
        SparseMatrix(QQ, 2, 2, [((0, 0), Fraction(1)), ((0, 0), Fraction(2))])
    # zero values are dropped, not stored
    m = SparseMatrix(QQ, 2, 2, {(0, 0): Fraction(0), (1, 1): Fraction(3)})
    assert (0, 0) not in m.entries and len(m.entries) == 1


def test_rank_examples():
    eye = SparseMatrix(QQ, 3, 3, {(i, i): Fraction(1) for i in range(3)})
    assert eye.rank() == 3
    prop = SparseMatrix(QQ, 2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(2),
                                   (1, 0): Fraction(2), (1, 1): Fraction(4)})
    assert prop.rank() == 1
    ones_f2 = SparseMatrix(Field(2), 2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert ones_f2.rank() == 1
    # same matrix over Q has the same rank, but [[1,1],[1,-1]] differs mod 2
    skew_q = SparseMatrix(QQ, 2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(1),
                                     (1, 0): Fraction(1), (1, 1): Fraction(-1)})
    skew_2 = SparseMatrix(Field(2), 2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert skew_q.rank() == 2 and skew_2.rank() == 1


def test_nullspace_examples():
    zero = SparseMatrix(QQ, 3, 4)
    assert len(zero.nullspace_basis()) == 4
    eye = SparseMatrix(QQ, 2, 2, {(0, 0): Fraction(1), (1, 1): Fraction(1)})
    assert eye.nullspace_basis() == []
    row = SparseMatrix(QQ, 1, 2, {(0, 0): Fraction(1), (0, 1): Fraction(1)})
    (v,) = row.nullspace_basis()
    # kernel spanned by (1, -1) up to scale
    assert row.apply(v) == {}
    assert set(v) == {0, 1} and v[0] == -v[1]


def test_apply_and_compose():
    m = SparseMatrix(QQ, 2, 3, {(0, 0): Fraction(1), (0, 2): Fraction(2), (1, 1): Fraction(-1)})
    assert m.apply({0: Fraction(1), 2: Fraction(1)}) == {0: Fraction(3)}
    n = SparseMatrix(QQ, 3, 2, {(0, 0): Fraction(1), (2, 1): Fraction(1)})
    mn = compose(m, n)
    assert mn.rows == 2 and mn.cols == 2
    assert mn.entries == {(0, 0): Fraction(1), (0, 1): Fraction(2)}
    with pytest.raises(StructuralError):
        compose(n, n)


def test_rational_matrices_store_integer_columns_and_read_as_fractions():
    """A Q matrix is 1/scale times integer columns, scale the least such
    denominator; entries, columns() and apply read it as Fractions, and
    so do the transpose and the product built from it.  Two matrices are
    equal, in stored form, however the same one was given."""
    F = Fraction
    entries = {(0, 0): F(1, 2), (1, 0): F(-2, 3), (1, 1): F(5, 6), (0, 2): F(3)}
    m = SparseMatrix(QQ, 2, 3, entries)
    assert m.scale == 6 and m.int_columns == [{0: 3, 1: -4}, {1: 5}, {0: 18}]
    assert m.entries == entries
    assert m.columns() == [{0: F(1, 2), 1: F(-2, 3)}, {1: F(5, 6)}, {0: F(3)}]
    assert all(m.column(j) == col for j, col in enumerate(m.columns()))
    assert transpose(m).entries == {(j, i): x for (i, j), x in entries.items()}
    assert m.apply({0: F(6), 2: F(1, 3)}) == {0: F(4), 1: F(-4)}
    n = SparseMatrix(QQ, 3, 1, {(0, 0): F(2), (2, 0): F(1, 3)})
    assert compose(m, n).entries == {(0, 0): F(2), (1, 0): F(-4, 3)}
    for view in (m.entries, transpose(m).entries, m.apply({0: F(6)}),
                 compose(m, n).entries, *m.columns()):
        assert all(type(x) is F for x in view.values())
    # the same matrix however it was given, and only that one
    assert key(m) == key(SparseMatrix(QQ, 2, 3, dict(reversed(list(entries.items())))))
    assert key(m) == key(matrix_from_columns(QQ, 2, m.columns()))
    assert key(m) == key(
        SparseMatrix.from_int_columns(QQ, 2, [{0: 6, 1: -8}, {1: 10}, {0: 36}], 12))
    assert key(m) != key(SparseMatrix(QQ, 2, 3, {**entries, (0, 2): F(4)}))
    assert type(SparseMatrix(QQ, 1, 1, {(0, 0): 2}).entries[0, 0]) is F


def test_prime_field_matrices_store_their_entries_mod_p():
    f5 = Field(5)
    m = SparseMatrix(f5, 1, 3, {(0, 0): 7, (0, 1): 5, (0, 2): -1})
    assert m.scale == 1 and m.int_columns == [{0: 2}, {}, {0: 4}]
    assert m.entries == {(0, 0): 2, (0, 2): 4}
    assert m.columns() is m.int_columns
    assert transpose(m).entries == {(0, 0): 2, (2, 0): 4}


def _random_sparse(rng, field, rows, cols, density=0.35):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = field.of_int(rng.randint(-5, 5))
                if not field.is_zero(v):
                    entries[(i, j)] = v
    return SparseMatrix(field, rows, cols, entries)


def test_rank_plus_nullity_randomized():
    rng = random.Random(20260816)
    for field in (QQ, Field(5)):
        for _ in range(300):
            rows, cols = rng.randint(0, 7), rng.randint(0, 7)
            m = _random_sparse(rng, field, rows, cols)
            kernel = m.nullspace_basis()
            assert m.rank() + len(kernel) == cols
            for v in kernel:
                assert m.apply(v) == {}
            assert m.rank() == transpose(m).rank()


def test_rank_permutation_invariance():
    rng = random.Random(7)
    for _ in range(50):
        m = _random_sparse(rng, QQ, 5, 6)
        perm_r = list(range(5))
        perm_c = list(range(6))
        rng.shuffle(perm_r)
        rng.shuffle(perm_c)
        shuffled = SparseMatrix(
            QQ, 5, 6, {(perm_r[i], perm_c[j]): v for (i, j), v in m.entries.items()})
        assert shuffled.rank() == m.rank()


def test_span_tracker_combos():
    t = SpanTracker(QQ, track=True)
    v1 = {0: Fraction(1), 1: Fraction(1)}
    v2 = {1: Fraction(1)}
    assert t.insert(v1, tag="a")
    assert t.insert(v2, tag="b")
    residual, combo = t.reduce({0: Fraction(2), 1: Fraction(3)})
    assert residual == {}
    assert combo == {"a": Fraction(2), "b": Fraction(1)}
    assert not t.insert({0: Fraction(1)}, tag="c")  # dependent
    # a tag used twice sums the coefficients of both inserts, as it did
    # with Fraction pivots, even when their denominators differ
    t = SpanTracker(QQ, track=True)
    assert t.insert({0: Fraction(1, 2)}, tag="a")
    assert t.insert({1: Fraction(1, 3)}, tag="a")
    assert t.reduce({0: Fraction(1), 1: Fraction(1)}) == ({}, {"a": Fraction(5)})


# ---------------------------------------------------------------------------
# elimination against plain dense Gauss-Jordan over Fractions

ENTRIES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
           Fraction(2, 3), Fraction(-2, 3), Fraction(7, 3), Fraction(-7, 3)]


def _in(field, x):
    """The rational x as an element of field."""
    return x if field.p is None else field.div(field.of_int(x.numerator),
                                               field.of_int(x.denominator))


def _sparse(field, dense, cols):
    return SparseMatrix(field, len(dense), cols, {
        (i, j): x for i, row in enumerate(dense) for j, x in enumerate(row)
        if not field.is_zero(x)})


def _reference_kernel(field, dense, cols):
    """(rank, kernel): e_j - sum_r R[r][j] e_{pivot(r)} for each non-pivot
    column j, which expresses column j in the independent columns before it."""
    pivots, rref = gauss_jordan(field, dense, cols)
    kernel = []
    for j in range(cols):
        if j not in pivots:
            v = {j: field.one}
            for pc, row in zip(pivots, rref):
                if not field.is_zero(row[j]):
                    v[pc] = field.neg(row[j])
            kernel.append(v)
    return len(pivots), kernel


@st.composite
def low_rank_matrices(draw):
    """A rows x cols matrix (rows <= 8, cols <= 10) over Q or F_5, the
    product of two random factors through a dimension below min(rows, cols),
    so its rank is deficient by construction."""
    field = draw(st.sampled_from([QQ, Field(5)]))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    inner = draw(st.integers(0, min(rows, cols) - 1))
    entry = st.sampled_from(ENTRIES).map(lambda x: _in(field, x))
    left = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    if not inner:
        return field, [[field.zero] * cols for _ in range(rows)], cols
    return field, _dense_product(field, left, right, cols), cols


@given(low_rank_matrices())
@settings(max_examples=150, deadline=None)
def test_elimination_matches_dense_gauss_jordan(case):
    field, dense, cols = case
    m = _sparse(field, dense, cols)
    rank, kernel = _reference_kernel(field, dense, cols)
    assert m.rank() == rank
    got = m.nullspace_basis()
    assert got == kernel
    scalar = Fraction if field.p is None else int
    for v in got:
        assert all(type(x) is scalar for x in v.values())
        assert m.apply(v) == {}


@st.composite
def tracker_feeds(draw):
    """Random inserts and probes in dimension <= 6 over Q or F_5; about
    half the probes are combinations of the inserts."""
    field = draw(st.sampled_from([QQ, Field(5)]))
    n = draw(st.integers(1, 6))
    entry = st.sampled_from(ENTRIES).map(lambda x: _in(field, x))

    def vector():
        v = {i: draw(entry) for i in draw(st.lists(st.integers(0, n - 1), max_size=n))}
        return {i: x for i, x in v.items() if not field.is_zero(x)}

    inserts = [vector() for _ in range(draw(st.integers(0, 6)))]
    probes = []
    for _ in range(draw(st.integers(1, 6))):
        probe = vector()
        if inserts and draw(st.booleans()):
            probe = {}
            for v in inserts:
                vec_add_into(field, probe, v, draw(entry))
        probes.append(probe)
    return field, n, inserts, probes


@given(tracker_feeds())
@settings(max_examples=150, deadline=None)
def test_span_tracker_certificates_are_exact(case):
    field, n, inserts, probes = case
    t = SpanTracker(field, track=True)
    for k, v in enumerate(inserts):
        t.insert(v, tag=k)

    def rank_of(vectors):
        dense = [[v.get(i, field.zero) for i in range(n)] for v in vectors]
        return len(gauss_jordan(field, dense, n)[0])

    scalar = Fraction if field.p is None else int
    base = rank_of(inserts)
    assert t.rank == base
    for key, (vec, pcombo) in t.pivots.items():  # integral (vec, combo)
        assert key == max(vec)  # a pivot is keyed by its lead, its largest index
        lead = vec[key]
        if field.p is None:
            assert all(type(x) is int for x in [*vec.values(), *pcombo.values()])
            # the lead keeps its sign; content goes jointly with the combo's
            assert lead != 0 and math.gcd(*vec.values(), *pcombo.values()) == 1
        else:
            # as the reduction left it, and the sum its combo names
            assert lead % field.p != 0
            spanned = {}
            for tag, c in pcombo.items():
                vec_add_into(field, spanned, inserts[tag], c)
            assert spanned == vec
    plain = SpanTracker(field)
    for v in inserts:
        plain.insert(v)
    assert plain.rank == base
    # untracked pivots are primitive integer vectors over Q; over F_p they
    # are the very vectors of the tracked pivots; either way (vec, None)
    assert set(plain.pivots) == set(t.pivots)
    for key, (vec, extra) in plain.pivots.items():
        assert key == max(vec) and extra is None
        if field.p is None:
            assert math.gcd(*vec.values()) == 1
        else:
            assert vec[key] % field.p != 0 and vec == t.pivots[key][0]
    for probe in probes:
        residual, combo = t.reduce(probe)
        assert all(type(x) is scalar for x in [*residual.values(), *combo.values()])
        total = dict(residual)
        for tag, c in combo.items():
            vec_add_into(field, total, inserts[tag], c)
        assert total == probe
        assert (residual == {}) == (rank_of(inserts + [probe]) == base)


def test_hilbert_and_rational_rank_four_eliminate_exactly():
    """Coefficient growth: the 8x8 Hilbert matrix has full rank, and with
    a ninth Hilbert column one kernel vector; a 10x4 times 4x10 product
    of rationals has rank 4.  Ranks and kernels equal plain Gauss-Jordan."""
    hilbert = [[Fraction(1, i + j + 1) for j in range(9)] for i in range(8)]
    square = [row[:8] for row in hilbert]
    assert _sparse(QQ, square, 8).rank() == 8
    assert _sparse(QQ, square, 8).nullspace_basis() == []
    wide = _sparse(QQ, hilbert, 9)
    (v,) = wide.nullspace_basis()
    assert [v] == _reference_kernel(QQ, hilbert, 9)[1]
    assert wide.apply(v) == {}

    rng = random.Random(1968)
    nonzero = [x for x in ENTRIES if x]
    eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    left = eye + [[rng.choice(nonzero) for _ in range(4)] for _ in range(6)]
    right = [row + [rng.choice(nonzero) for _ in range(6)] for row in eye]
    dense = _dense_product(QQ, left, right, 10)
    m = _sparse(QQ, dense, 10)
    rank, kernel = _reference_kernel(QQ, dense, 10)
    assert m.rank() == rank == 4
    assert m.nullspace_basis() == kernel
    assert all(m.apply(v) == {} for v in kernel)


def _first_square_failure(c):
    """The first nonzero column of d_{d+1} d_d, from the matrix product."""
    for d in range(c.window.lo, c.window.hi - 1):
        square = compose(c.d_at(d + 1), c.d_at(d))
        if not square.is_zero():
            return d, min(j for _, j in square.entries)
    return None


def _chain(field, dims, diffs):
    """The complex with dims[k] basis labels at degree k and d_k = diffs[k]
    (dense lists of rows)."""
    basis = {d: tuple(f"e{d}_{i}" for i in range(n)) for d, n in enumerate(dims)}
    return CochainComplexSlice(field, Window(0, len(dims) - 1), basis, {
        d: _sparse(field, m, dims[d]) for d, m in enumerate(diffs)})


def test_d_squared_failure_respects_denominators():
    third, half = Fraction(1, 3), Fraction(1, 2)
    one, three, two = Fraction(1), Fraction(3), Fraction(2)
    # d_1 d_0 = (3, -3) . (1/3, 1/3) = 0 on column 0, but (3, -3) . (1/3, 1)
    # = -2 on column 1: it fails only through the denominators
    fails = _chain(QQ, [3, 2, 1], [[[third, third, one], [third, one, third]],
                                   [[three, -three]]])
    assert fails.d_squared_failure() == _first_square_failure(fails) == (0, 1)
    with pytest.raises(InvalidComplexError):
        fails.cohomology()
    # (2, -1) . (1/2, 1) = 0 and (2, -1) . (1, 2) = 0 cancel legitimately
    cancels = _chain(QQ, [2, 2, 1], [[[half, one], [one, two]], [[two, -one]]])
    assert cancels.d_squared_failure() is _first_square_failure(cancels) is None
    assert cancels.cohomology().dims == {1: 0}
    # the first failing degree wins: d_1 d_0 = 0, d_2 d_1 = (2/3, -1/3) != 0
    later = _chain(QQ, [1, 2, 1, 1], [[[half], [one]], [[two, -one]], [[third]]])
    assert later.d_squared_failure() == _first_square_failure(later) == (1, 0)
    # over F_5, (2, 3) . (1, 1) = 5 vanishes
    f5 = Field(5)
    mod5 = _chain(f5, [1, 2, 1], [[[1], [1]], [[2, 3]]])
    assert mod5.d_squared_failure() is _first_square_failure(mod5) is None


@given(st.sampled_from([QQ, Field(5)]), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_d_squared_failure_matches_the_matrix_product(field, rnd):
    """d_0's columns are combinations of d_1's kernel, some perturbed."""
    n0, n1, n2 = rnd.randint(1, 4), rnd.randint(1, 4), rnd.randint(1, 3)
    pick = lambda: _in(field, rnd.choice(ENTRIES))
    d1 = [[pick() for _ in range(n1)] for _ in range(n2)]
    kernel = _reference_kernel(field, d1, n1)[1]
    cols = []
    for _ in range(n0):
        col = {}
        for v in kernel:
            vec_add_into(field, col, v, pick())
        if rnd.random() < 0.3:
            vec_add_into(field, col, {rnd.randrange(n1): field.one}, pick())
        cols.append(col)
    d0 = [[col.get(i, field.zero) for col in cols] for i in range(n1)]
    c = _chain(field, [n0, n1, n2], [d0, d1])
    assert c.d_squared_failure() == _first_square_failure(c)


# ---------------------------------------------------------------------------
# windows and complexes

def test_window_basics():
    w = Window(-2, 3)
    assert -2 in w and 3 in w and 4 not in w
    assert list(w.interior()) == [-1, 0, 1, 2]
    assert w.padded() == Window(-3, 4)
    assert w.mirrored() == Window(-3, 2)
    with pytest.raises(RefusalError):
        Window(1, 0)


def _two_step_complex(field=QQ):
    # 0 -> k^2 -d-> k^2 -> 0 in degrees 0, 1 with d = [[0,1],[0,0]]
    basis = {-1: (), 0: ("a", "b"), 1: ("x", "y"), 2: ()}
    d0 = SparseMatrix(field, 2, 2, {(0, 1): field.one})
    return CochainComplexSlice(field, Window(-1, 2), basis, {0: d0})


def test_complex_validate_and_cohomology():
    c = _two_step_complex()
    c.validate_complex()
    rep = c.cohomology()
    assert rep.dims == {0: 1, 1: 1}
    assert rep.unreliable == frozenset({-1, 2})
    # representatives: H^0 spanned by "a", H^1 by "y"
    (h0,) = rep.representatives[0]
    (h1,) = rep.representatives[1]
    assert set(h0) == {0}
    assert set(h1) == {1}
    # dim: an interior degree's, a refusal at the window's boundary, and 0
    # outside the window
    assert rep.dim(0) == 1
    with pytest.raises(RefusalError, match="degree 2 is at the window boundary"):
        rep.dim(2)
    assert rep.dim(5) == 0


def test_complex_d_squared_enforced():
    field = QQ
    basis = {0: ("a",), 1: ("b",), 2: ("c",)}
    d0 = SparseMatrix(field, 1, 1, {(0, 0): Fraction(1)})
    d1 = SparseMatrix(field, 1, 1, {(0, 0): Fraction(1)})
    c = CochainComplexSlice(field, Window(0, 2), basis, {0: d0, 1: d1})
    with pytest.raises(InvalidComplexError) as info:
        c.cohomology()
    assert info.value.degree == 0


def test_complex_shape_mismatch():
    field = QQ
    basis = {0: ("a",), 1: ("b", "c")}
    bad = SparseMatrix(field, 1, 1, {(0, 0): Fraction(1)})
    with pytest.raises(StructuralError):
        CochainComplexSlice(field, Window(0, 1), basis, {0: bad})


def test_cohomology_euler_identity():
    # acyclic in the middle: 0 -> k -> k -> 0
    field = QQ
    basis = {-1: (), 0: ("a",), 1: ("b",), 2: ()}
    d0 = SparseMatrix(field, 1, 1, {(0, 0): Fraction(1)})
    c = CochainComplexSlice(field, Window(-1, 2), basis, {0: d0})
    rep = c.cohomology()
    assert rep.dims == {0: 0, 1: 0}
    # boundary degrees are empty here, so Euler characteristics agree
    euler_h = sum(n if d % 2 == 0 else -n for d, n in rep.dims.items())
    euler_c = sum(len(b) if d % 2 == 0 else -len(b) for d, b in c.basis.items())
    assert euler_h == euler_c == 0


@given(st.integers(0, 4), st.integers(0, 4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_random_two_term_euler(n0, n1, rnd):
    """For a random two-term complex with empty boundary degrees, the Euler
    characteristic of cohomology equals the Euler characteristic of chains."""
    field = Field(5)
    entries = {}
    for i in range(n1):
        for j in range(n0):
            v = field.of_int(rnd.randint(-2, 2))
            if not field.is_zero(v):
                entries[(i, j)] = v
    basis = {-1: (), 0: tuple(f"a{j}" for j in range(n0)),
             1: tuple(f"b{i}" for i in range(n1)), 2: ()}
    d0 = SparseMatrix(field, n1, n0, entries)
    c = CochainComplexSlice(field, Window(-1, 2), basis, {0: d0})
    rep = c.cohomology(representatives=False)
    assert rep.dims.get(0, 0) - rep.dims.get(1, 0) == n0 - n1


def _dense_product(field, a, b, cols):
    """a @ b for dense lists of rows, b having cols columns."""
    out = []
    for row in a:
        out.append([field.zero] * cols)
        for x, brow in zip(row, b):
            out[-1] = [field.add(y, field.mul(x, z)) for y, z in zip(out[-1], brow)]
    return out


@st.composite
def split_complexes(draw, lengths=(2, 3), shapes=None, fields=(QQ, Field(5))):
    """A complex with known cohomology: on a window of lengths[0] + 1 to
    lengths[1] + 1 degrees, a direct sum of isolated k's and contractible
    pairs k -> k (unit coefficient), with each degree's basis changed by a
    random product P_d of elementary operations with integer coefficients.
    The differential is P_{d+1} D_d P_d^{-1}, so d^2 = 0 by construction.
    With shapes, one of "<", "=", ">" is drawn from it and isolated k's are
    added at an end of the window until dim(lo) compares so with dim(hi).
    Returns (complex, isolated k's by degree, pairs by source degree, P by
    degree)."""
    field = draw(st.sampled_from(fields))
    lo = draw(st.integers(-2, 1))
    window = Window(lo, lo + draw(st.integers(*lengths)))
    iso = {d: draw(st.integers(0, 2)) for d in window.degrees()}
    pairs = {d: draw(st.integers(0, 2)) for d in range(window.lo, window.hi)}
    pairs[window.hi] = 0
    if shapes:
        shape = draw(st.sampled_from(shapes))
        gap = iso[window.lo] + pairs[window.lo] - iso[window.hi] - pairs[window.hi - 1]
        if shape == "<" and gap >= 0 or shape == "=" and gap > 0:
            iso[window.hi] += gap + (shape == "<")
        elif shape == ">" and gap <= 0 or shape == "=" and gap < 0:
            iso[window.lo] += (shape == ">") - gap
    # original basis at d: isolated k's, then pair targets, then pair sources
    n = {d: iso[d] + pairs.get(d - 1, 0) + pairs[d] for d in window.degrees()}
    rnd = draw(st.randoms(use_true_random=False))
    units = [field.of_int(u) for u in (1, 2, 3, -1, -2)]
    p, p_inv = {}, {}
    for d in window.degrees():
        m = [[field.one if i == j else field.zero for j in range(n[d])] for i in range(n[d])]
        m_inv = [row[:] for row in m]
        for _ in range(rnd.randint(0, 3 * n[d]) if n[d] else 0):
            i, j = rnd.randrange(n[d]), rnd.randrange(n[d])
            if i != j:  # row_i += c row_j; its inverse is col_j -= c col_i
                c = rnd.choice(units)
                m[i] = [field.add(x, field.mul(c, y)) for x, y in zip(m[i], m[j])]
                for row in m_inv:
                    row[j] = field.sub(row[j], field.mul(c, row[i]))
            else:  # row_i *= u; its inverse is col_i *= 1/u
                u = rnd.choice(units)
                m[i] = [field.mul(u, x) for x in m[i]]
                for row in m_inv:
                    row[i] = field.mul(row[i], field.inv(u))
        p[d], p_inv[d] = m, m_inv
    basis = {d: tuple(f"e{d}_{k}" for k in range(n[d])) for d in window.degrees()}
    diff = {}
    for d in range(window.lo, window.hi):
        split = [[field.zero] * n[d] for _ in range(n[d + 1])]
        for k in range(pairs[d]):
            split[iso[d + 1] + k][iso[d] + pairs.get(d - 1, 0) + k] = field.one
        dense = _dense_product(field, _dense_product(field, p[d + 1], split, n[d]),
                               p_inv[d], n[d])
        diff[d] = SparseMatrix(field, n[d + 1], n[d], {
            (i, j): v for i, row in enumerate(dense) for j, v in enumerate(row)
            if not field.is_zero(v)})
    for d in window.degrees():
        assert _dense_product(field, p[d], p_inv[d], n[d]) == [
            [field.one if i == j else field.zero for j in range(n[d])] for i in range(n[d])]
    return CochainComplexSlice(field, window, basis, diff), iso, pairs, p


@given(split_complexes(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_cohomology_of_conjugated_split_complexes(case, rnd):
    c, iso, pairs, p = case
    field, window = c.field, c.window
    full = c.cohomology()
    assert c.cohomology(representatives=False).dims == full.dims \
        == {d: iso[d] for d in window.interior()}
    for d in range(window.lo, window.hi):
        assert c.d_at(d).rank() == pairs[d]
    for d in window.interior():
        reps = full.representatives[d]
        for i, rep in enumerate(reps):
            assert c.d_at(d).apply(rep) == {}
            assert full.coords(d, rep) == {i: field.one}
        chain = {j: field.of_int(rnd.randint(-3, 3)) for j in range(c.dim(d - 1))}
        boundary = c.d_at(d - 1).apply({j: x for j, x in chain.items() if x})
        assert full.coords(d, boundary) == {}
        # a combination of representatives plus a boundary has the
        # combination's coefficients as its class coordinates
        want = {i: field.of_int(rnd.randint(1, 3)) for i in range(len(reps))}
        mixed = dict(boundary)
        for i, x in want.items():
            vec_add_into(field, mixed, reps[i], x)
        assert full.coords(d, mixed) == want
        if pairs[d]:  # P_d applied to a pair source is not a cocycle
            src = iso[d] + pairs.get(d - 1, 0)
            column = {i: row[src] for i, row in enumerate(p[d]) if not field.is_zero(row[src])}
            with pytest.raises(StructuralError):
                full.coords(d, column)
    with pytest.raises(RefusalError):  # boundary degrees have no classes
        full.coords(window.lo, {})


@given(split_complexes(lengths=(1, 5), shapes=("<", "=", ">")))
@settings(max_examples=120, deadline=None)
def test_cleared_ranks_are_the_plain_ranks(case):
    """Clearing runs on columns bottom-up, on the complex as given,
    whichever of dim(lo) and dim(hi) is the larger; each rank on the
    report is the plain rank of d_d."""
    c, iso, pairs, _ = case
    window = c.window
    ranks = c.cohomology(representatives=False).ranks
    assert ranks == {d: c.d_at(d).rank() for d in range(window.lo, window.hi)} \
        == {d: pairs[d] for d in range(window.lo, window.hi)}
    assert c.cohomology(representatives=False).dims == c.cohomology().dims \
        == {d: iso[d] for d in window.interior()}


# -- F_p pivots as they stand ----------------------------------------------------
# The bars and duals of k[x]/x^3 and k[x, y]/(x^2, y^2) only produce pivots
# with leads 1 and p - 1, the two self-inverse ones; these tests reach the
# memoized inverses of the other leads.

PRIMES = (Field(5), Field(7), Field(32003))


@st.composite
def unit_free_matrices(draw):
    """A random sparse matrix over F_5, F_7 or F_32003 with every entry in
    [2, p - 2] (so no entry is 1 or p - 1, and neither is the lead of the
    first pivot), and probes, about half of them in the column span."""
    field = draw(st.sampled_from(PRIMES))
    p = field.p
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.integers(2, p - 2)
    entries = {(i, j): draw(entry) for i, j in draw(st.lists(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)), min_size=1, max_size=20))}
    m = SparseMatrix(field, rows, cols, entries)
    probes = []
    for _ in range(draw(st.integers(1, 4))):
        probe = {i: draw(entry) for i in draw(st.lists(st.integers(0, rows - 1), max_size=rows))}
        if draw(st.booleans()):
            probe = m.apply({j: draw(entry) for j in range(cols)})
        probes.append(probe)
    return m, probes


@given(unit_free_matrices())
@settings(max_examples=150, deadline=None)
def test_f_p_pivots_stand_as_made_whatever_their_lead(case):
    """Over F_p every pivot is stored as the reduction or the matrix left
    it, whatever its lead: plain, tracked and inserted pivots are equal
    vectors at the same leads, `as_boundaries` seeds the very same dicts,
    and all trackers leave the same residual of a probe, empty exactly
    when the probe lies in the column span."""
    m, probes = case
    field, p = m.field, m.field.p
    plain, tracked = m.eliminate()[0], m.eliminate(track=True)[0]
    inserted = SpanTracker(field)
    for col in m.int_columns:
        inserted.insert(col)
    vectors = {lead: vec for lead, (vec, _) in tracked.pivots.items()}
    assert {lead: vec for lead, (vec, _) in plain.pivots.items()} == vectors
    assert {lead: vec for lead, (vec, _) in inserted.pivots.items()} == vectors
    assert any(vec[lead] not in (1, p - 1) for lead, vec in vectors.items())
    assert all(extra is None for _, extra in plain.pivots.values())
    for source in (plain, tracked):
        seeded = source.as_boundaries()
        assert seeded.pivots.keys() == source.pivots.keys()
        for lead, (vec, combo) in seeded.pivots.items():
            assert vec is source.pivots[lead][0] and combo == {}
    dense = [[m.int_columns[j].get(i, 0) for j in range(m.cols)] for i in range(m.rows)]
    rank = len(gauss_jordan(field, dense, m.cols)[0])
    assert plain.rank == rank
    for probe in probes:
        residual = plain.reduce(probe)[0]
        assert residual == tracked.reduce(probe)[0] == inserted.reduce(probe)[0]
        spanned = len(gauss_jordan(field, [row + [probe.get(i, 0)] for i, row
                                            in enumerate(dense)], m.cols + 1)[0]) == rank
        assert (residual == {}) == spanned


@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
def test_a_pivot_of_the_wrong_kind_raises_instead_of_looping(track):
    """Over F_p a reduction step that leaves its lead in the vector raises:
    here a pivot whose lead is 0 mod p, stored as 0 and as p, untracked and
    tracked.  Without the check the reduction would pick the same pivot
    again, forever."""
    for zero in (0, 5):
        tracker = SpanTracker(Field(5), track=track)
        tracker.pivots[1] = ({0: 1, 1: zero}, {0: 1} if track else None)
        for call in (tracker.insert, tracker.reduce):
            with pytest.raises(StructuralError, match="the pivot at 1 did not clear its lead"):
                call({1: 1})


@given(split_complexes(lengths=(1, 5), shapes=("<", "=", ">"), fields=PRIMES))
@settings(max_examples=80, deadline=None)
def test_cleared_ranks_over_f_p_are_the_gauss_jordan_ranks(case):
    """Dims-only cohomology reduces against pivots stored as they stand
    over F_5, F_7 and F_32003, on the complex as given, whose conjugated
    differentials have leads other than 1 and p - 1; each rank on the
    report is the dense Gauss-Jordan rank of d_d."""
    c, _, pairs, _ = case
    window = c.window
    assert c.cohomology(representatives=False).ranks \
        == {d: reference_rank(c.d_at(d)) for d in range(window.lo, window.hi)} \
        == {d: pairs[d] for d in range(window.lo, window.hi)}


@given(split_complexes(lengths=(1, 5), shapes=(">",), fields=(QQ,) + PRIMES))
@settings(max_examples=100, deadline=None)
def test_both_modes_run_one_loop_from_the_larger_low_end(case):
    """On complexes whose low end is the larger, the side once transposed
    before its ranks were read, dims-only and representatives cohomology
    run the same loop on the complex as given: they report the same dims
    and the same ranks, and each rank is the dense Gauss-Jordan rank of
    d_d, over Q and over F_p."""
    c, iso, pairs, _ = case
    window = c.window
    assert c.dim(window.lo) > c.dim(window.hi)
    dims_only, full = c.cohomology(representatives=False), c.cohomology()
    assert dims_only.dims == full.dims == {d: iso[d] for d in window.interior()}
    assert dims_only.ranks == full.ranks
    assert full.ranks == {d: reference_rank(c.d_at(d)) for d in range(window.lo, window.hi)} \
        == {d: pairs[d] for d in range(window.lo, window.hi)}


def _plain_representatives(c):
    """The representatives loop of `cohomology` without clearing: every
    column of each d_d is eliminated, and the boundaries are subtracted from
    the cycles.  Returns (representatives, class trackers) by degree."""
    field, window = c.field, c.window
    below = c.d_at(window.lo).eliminate()[0]
    reps, classes = {}, {}
    for d in window.interior():
        above, cycles = c.d_at(d).eliminate(track=True)
        tracker = below.as_boundaries()
        chosen = []
        for z in cycles:
            if tracker.insert(z, tag=len(chosen)):
                chosen.append(z)
        assert len(chosen) == len(cycles) - len(below.pivots)
        reps[d], classes[d] = tuple(chosen), tracker
        below = above
    return reps, classes


@given(split_complexes(lengths=(1, 5)), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_cleared_representatives_are_the_plain_ones(case, rnd):
    """Clearing the columns at the leads of d_{d-1}'s pivots changes no
    representative, no class tracker and no class coordinate; the cleared
    elimination leaves the plain tracker and the plain kernel less the
    vectors of the skipped columns."""
    c, iso, _, _ = case
    field, window = c.field, c.window
    report = c.cohomology()
    reps, classes = _plain_representatives(c)
    assert report.representatives == reps
    assert report.dims == {d: iso[d] for d in window.interior()}
    for d in window.interior():
        assert report._classes[d].pivots == classes[d].pivots
        assert report._classes[d]._scale == classes[d]._scale
        # a random cocycle plus a random boundary, read by both trackers
        chain = {j: field.of_int(rnd.randint(-3, 3)) for j in range(c.dim(d - 1))}
        mixed = c.d_at(d - 1).apply({j: x for j, x in chain.items() if x})
        for z in c.d_at(d).nullspace_basis():
            vec_add_into(field, mixed, z, field.of_int(rnd.randint(-3, 3)))
        assert classes[d].reduce(mixed) == ({}, report.coords(d, mixed))
    for d in range(window.lo, window.hi):
        skip = c.d_at(d - 1).eliminate()[0].pivots
        plain, kernel = c.d_at(d).eliminate(track=True)
        cleared, rest = c.d_at(d).eliminate(track=True, skip=skip)
        assert cleared.pivots == plain.pivots
        assert rest == [z for z in kernel if max(z) not in skip]
        assert len(rest) == len(kernel) - len(skip)


def test_matrix_from_columns_roundtrip():
    cols = [{0: Fraction(1)}, {}, {1: Fraction(-2), 0: Fraction(3)}]
    m = matrix_from_columns(QQ, 2, cols)
    assert m.columns() == [{0: Fraction(1)}, {}, {0: Fraction(3), 1: Fraction(-2)}]


def test_complex_from_labels_sums_terms_and_stops_at_the_window():
    f5 = Field(5)
    basis = {0: ("a", "b"), 1: ("x",), 2: ("y",)}
    terms = {"a": [("x", 2), ("x", 1)], "b": [("x", 2), ("x", 3)],
             "x": [("y", 1)], "y": [("z", 1)]}
    c = complex_from_labels(f5, Window(0, 2), basis, lambda l: terms[l])
    # repeated terms are summed (b's two cancel mod 5); y's term would
    # leave the window and is never asked for
    assert key(c.d_at(0)) == key(SparseMatrix(f5, 1, 2, {(0, 0): 3}))
    assert key(c.d_at(1)) == key(SparseMatrix(f5, 1, 1, {(0, 0): 1}))
    terms["a"] = [("w", 1)]
    with pytest.raises(StructuralError, match="'w'"):
        complex_from_labels(f5, Window(0, 2), basis, lambda l: terms[l])


# -- pivots as they stand --------------------------------------------------------
# A column that meets no pivot is stored as the pivot, uncopied, and every
# pivot over Q, tracked or not, keeps the sign of its lead; as_boundaries
# shares those vectors again.  Nothing may write into them.

SIGNED = {None: (-3, -2, -1, 1, 2, 3, Fraction(-3, 2), Fraction(2, 3)), "p": (-2, -1, 1, 2, 3)}


@st.composite
def signed_matrices(draw, fields=(QQ, QQ) + PRIMES):
    """A sparse matrix over Q or a prime field with entries of both signs
    (over Q, some with a denominator), so that columns lead with negative
    entries, now and then with a column the negation of an earlier one;
    probes, about half of them in the column span; and columns to skip,
    drawn from those that depend on earlier ones."""
    field = draw(st.sampled_from(fields))
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    entry = st.sampled_from(SIGNED[field.p and "p"]).map(lambda x: _in(field, x))
    columns = [{} for _ in range(cols)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                              max_size=24)):
        columns[j][i] = draw(entry)
    if cols > 1 and draw(st.booleans()):
        j = draw(st.integers(0, cols - 2))
        columns[draw(st.integers(j + 1, cols - 1))] = {i: field.neg(x) for i, x in columns[j].items()}
    m = matrix_from_columns(field, rows, columns)
    probes = []
    for _ in range(draw(st.integers(1, 3))):
        probe = {i: draw(entry) for i in draw(st.lists(st.integers(0, rows - 1), max_size=rows))}
        if draw(st.booleans()):
            probe = m.apply({j: draw(entry) for j in range(cols)})
        probes.append(probe)
    dense = [[m.column(j).get(i, field.zero) for j in range(cols)] for i in range(rows)]
    independent = gauss_jordan(field, dense, cols)[0]
    dependent = [j for j in range(cols) if j not in independent]
    skip = frozenset(draw(st.lists(st.sampled_from(dependent), unique=True)) if dependent else ())
    return m, dense, probes, skip


@given(signed_matrices())
@settings(max_examples=150, deadline=None)
def test_elimination_never_writes_into_its_matrix(case):
    """Pivots share the matrix's columns, so every reader of them (the
    eliminations, tracked or not, with or without skip, int_kernel, rank,
    nullspace_basis, and reductions and inserts against the trackers and
    the ones as_boundaries seeds) must leave the columns as they were."""
    m, _, probes, skip = case
    before = copy.deepcopy(m.int_columns)
    trackers = [m.eliminate(track, s)[0] for track in (False, True) for s in ((), skip)]
    m.int_kernel(), m.rank(), m.nullspace_basis()
    for tracker in trackers + [t.as_boundaries() for t in trackers]:
        for probe in probes:
            tracker.reduce(probe)
            tracker.insert(probe, tag=m.cols)
    assert m.int_columns == before


@given(split_complexes(lengths=(1, 4), fields=(QQ,) + PRIMES), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_cohomology_never_writes_into_its_differentials(case, rnd):
    """cohomology with representatives seeds its class trackers with the
    pivots of the previous elimination, which may be the differentials'
    own columns; neither it nor coords on its report writes into them."""
    c, _, _, _ = case
    field = c.field
    before = {d: copy.deepcopy(m.int_columns) for d, m in c.diff.items()}
    report = c.cohomology()
    c.cohomology(representatives=False)
    for d, reps in report.representatives.items():
        chain = {j: field.of_int(rnd.randint(-3, 3)) for j in range(c.dim(d - 1))}
        mixed = c.d_at(d - 1).apply({j: x for j, x in chain.items() if x})
        assert report.coords(d, mixed) == {}
        for i, rep in enumerate(reps):
            assert report.coords(d, rep) == {i: field.one}
            vec_add_into(field, mixed, rep, field.of_int(-2))
        assert report.coords(d, mixed) == {i: field.of_int(-2) for i in range(len(reps))}
    assert {d: m.int_columns for d, m in c.diff.items()} == before


@given(signed_matrices())
@settings(max_examples=150, deadline=None)
def test_signed_pivots_give_the_reference_ranks_kernels_and_residuals(case):
    """Pivots keep their signs and stand as they were made, tracked or
    not: a column whose lead no earlier column's pivot holds is the pivot
    itself, a reduced untracked pivot is primitive over Q, and the plain
    and tracked pivots at each lead are parallel, leads of either sign.
    The ranks and kernels are the dense Gauss-Jordan ones, and a probe
    reduces to the same residual and combo against signed pivots as
    against the tracked ones, also in the tracked trackers that
    as_boundaries seeds with them."""
    m, dense, probes, _ = case
    field = m.field
    rank, kernel = _reference_kernel(field, dense, m.cols)
    plain, tracked = m.eliminate()[0], m.eliminate(track=True)[0]
    assert plain.rank == tracked.rank == m.rank() == reference_rank(m) == rank
    assert m.nullspace_basis() == kernel
    assert [{i: field.div(field.of_int(x), field.of_int(s)) for i, x in z.items()}
            for z, s in m.int_kernel()] == kernel
    assert plain.pivots.keys() == tracked.pivots.keys()
    # the fresh columns: those whose lead the pivots of the columns before
    # them do not hold
    fresh = {}
    for j, col in enumerate(m.int_columns):
        before = SparseMatrix.from_int_columns(field, m.rows, m.int_columns[:j], m.scale)
        if col and max(col) not in before.eliminate()[0].pivots:
            fresh[max(col)] = col
    for lead, (vec, extra) in plain.pivots.items():
        tvec = tracked.pivots[lead][0]
        assert extra is None and tvec[lead] != 0
        if lead in fresh:
            assert vec is fresh[lead] and tvec is fresh[lead]
        elif field.p is None:
            assert math.gcd(*vec.values()) == 1
        # parallel: vec * tvec[lead] = tvec * vec[lead]
        assert vec.keys() == tvec.keys()
        assert all(field.sub(field.mul(x, tvec[lead]), field.mul(tvec[i], vec[lead])) == 0
                   for i, x in vec.items())
    # the same pivots with positive leads reduce to the very same ints, the
    # scale positive: a step is the same against a pivot and its negation
    positive = SpanTracker(field)
    positive.pivots = {lead: (vec if vec[lead] > 0 else {i: -x for i, x in vec.items()}, extra)
                       for lead, (vec, extra) in plain.pivots.items()}
    for probe in probes:
        scale, (w,) = _integral_columns(field, [probe])
        for signed, unsigned in ((plain, positive),
                                 (plain.as_boundaries(), positive.as_boundaries())):
            got = signed._reduce_ints(dict(w), scale)
            assert got == unsigned._reduce_ints(dict(w), scale) and got[2] > 0
        assert plain.reduce(probe)[0] == tracked.reduce(probe)[0]
        seeded, tseeded = plain.as_boundaries(), tracked.as_boundaries()
        assert seeded.reduce(probe) == tseeded.reduce(probe)
        assert seeded.insert(probe, tag=0) == tseeded.insert(probe, tag=0)
        assert seeded.pivots.keys() == tseeded.pivots.keys()
        for lead, (vec, combo) in seeded.pivots.items():
            if combo:  # the inserted probe's pivot, the same in both
                assert tseeded.pivots[lead] == (vec, combo)


class _NegatedPivots(dict):
    """A tracked pivot table that stores each pivot negated, its vector
    and its combo."""

    def __setitem__(self, lead, pivot):
        vec, combo = pivot
        super().__setitem__(lead, ({i: -x for i, x in vec.items()},
                                   {t: -c for t, c in combo.items()}))


def _negating_tracked_pivots(mp):
    """Make every tracked SpanTracker store its pivots negated, the seeds
    of as_boundaries included."""
    init, seed = SpanTracker.__init__, SpanTracker.as_boundaries

    def __init__(self, field, track=False):
        init(self, field, track)
        if track:
            self.pivots = _NegatedPivots()

    def as_boundaries(self):
        seeded = seed(self)
        seeds, seeded.pivots = seeded.pivots, _NegatedPivots()
        for lead, pivot in seeds.items():
            seeded.pivots[lead] = pivot
        return seeded

    mp.setattr(SpanTracker, "__init__", __init__)
    mp.setattr(SpanTracker, "as_boundaries", as_boundaries)


@given(signed_matrices(fields=(QQ,)), split_complexes(fields=(QQ,)))
@settings(max_examples=100, deadline=None)
def test_negated_tracked_pivots_give_the_same_ints(case, split):
    """A tracked Q pivot keeps the sign of its lead because the sign is
    free: with every tracked pivot negated, vector and combo, reductions,
    kernels, representatives and class coordinates are the same ints."""
    m, _, probes, skip = case
    c = split[0]

    def ints(v):
        scale, (w,) = _integral_columns(QQ, [v])
        return w, scale

    def answers():
        tracker = m.eliminate(track=True)[0]
        reduced = [(tracker._reduce_ints(*ints(probe)), tracker.reduce(probe))
                   for probe in probes]
        report = c.cohomology()
        coords = []
        for d, reps in report.representatives.items():
            bd = c.d_at(d - 1)
            boundary = bd.apply({j: Fraction(j % 3 - 1) for j in range(bd.cols)})
            for rep in reps:
                for v in (rep, boundary, {i: rep.get(i, 0) + boundary.get(i, 0)
                                          for i in {*rep, *boundary}}):
                    w, scale = ints({i: x for i, x in v.items() if x})
                    coords.append(report._classes[d]._reduce_ints(w, scale)[:3])
        return (tracker.pivots, reduced, m.int_kernel(), m.eliminate(True, skip)[1],
                report.representatives, coords)

    pivots, *expected = answers()
    with pytest.MonkeyPatch.context() as mp:
        _negating_tracked_pivots(mp)
        negated, *got = answers()
    assert negated == {lead: ({i: -x for i, x in vec.items()}, {t: -c for t, c in combo.items()})
                       for lead, (vec, combo) in pivots.items()}
    assert got == expected


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=["Q", "F7"])
def test_a_column_that_meets_no_pivot_is_the_pivot_itself(field):
    """An elimination stores each column whose lead no pivot holds as it
    stands, the matrix's own dict, whatever its lead (over Q a negative
    one is kept), tracked (with the combo {j: 1}) or not, and
    as_boundaries shares it again.  A column that meets a pivot is copied
    before it is reduced."""
    m = SparseMatrix(field, 3, 3, {(0, 0): 1, (2, 0): -2, (1, 1): -1, (0, 2): 3, (2, 2): -4})
    first, second, third = m.int_columns
    plain = m.eliminate()[0]
    assert plain.pivots[2][0] is first and plain.pivots[1][0] is second
    assert all(vec is not third for vec, _ in plain.pivots.values())
    tracked = m.eliminate(track=True)[0]
    assert all(vec is not third for vec, _ in tracked.pivots.values())
    assert first == ({0: 1, 2: -2} if field.p is None else {0: 1, 2: 5})
    assert plain.pivots[2][1] is None and plain.pivots[1][1] is None
    assert plain.as_boundaries().pivots[2][0] is first
    assert tracked.pivots[2][0] is first and tracked.pivots[2][1] == {0: 1}
    assert tracked.pivots[1][0] is second and tracked.pivots[1][1] == {1: 1}
    unit = SparseMatrix(field, 2, 2, {(0, 0): 3, (1, 0): 1, (1, 1): 2})
    tracked = unit.eliminate(track=True)[0]
    assert tracked.pivots[1][0] is unit.int_columns[0] and tracked.pivots[1][1] == {0: 1}


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=["Q", "F7"])
def test_insert_ints_is_insert_on_ints(field):
    """`insert_ints` is `insert` of w / scale: the same verdicts and pivots,
    and a vector that meets no pivot becomes the pivot itself, uncopied,
    whatever its lead (3 here)."""
    vectors = [{0: 1, 2: 3}, {1: 3}, {0: 2, 2: 6}, {0: 1, 1: 2}]
    plain, ints = SpanTracker(field), SpanTracker(field)
    for v in vectors:
        scale, (w,) = _integral_columns(field, [v])
        assert ints.insert_ints(w, scale) == plain.insert(v)
    assert ints.pivots == plain.pivots
    w = {3: 3, 0: 1}
    assert ints.insert_ints(w, 1) and ints.pivots[3][0] is w and ints.pivots[3][1] is None


def test_a_reduced_tracked_pivot_keeps_the_sign_of_its_lead():
    """Over Q a tracked pivot that a reduction leaves keeps the sign of its
    lead, as an untracked one does: column 1 minus column 0 is -2 e_0."""
    m = SparseMatrix(QQ, 2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): 1})
    assert m.eliminate()[0].pivots[0] == ({0: -1}, None)
    assert m.eliminate(track=True)[0].pivots[0] == ({0: -2}, {0: -1, 1: 1})
