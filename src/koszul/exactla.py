"""Exact sparse linear algebra over Q and prime fields.

Scalars are `fractions.Fraction` over the rationals and plain ints in
[0, p) over F_p.  Everything downstream (complex slices, bar words, duals,
resolutions) reduces to the Gaussian elimination in this module, so ranks
and kernels here are exact by construction; there is no floating point
anywhere in the package.

A SparseMatrix is stored as integer columns: over F_p its entries, over Q
1/D times integer columns for one least denominator D per matrix.  Bar
and dual assembly (koszul.bar builds the integer columns of each bar, and
of its dual, block by block and hands them to
SparseMatrix.from_int_columns), the stages of a resolution (koszul.extres,
which reads its cycles from SparseMatrix.int_kernel), the Koszul dual's
ring constants (koszul.dual multiplies representatives on index vectors,
read by CohomologyReport.int_coords), the d^2 check and the elimination
(SpanTracker) never do Fraction arithmetic.  Over F_p
the loops reduce mod a local p.  Over Q a vector is scaled by the lcm of
its denominators (a matrix column arrives scaled already), reduction is
fraction-free (Bareiss 1968: v <- a*v - b*pivot with the leads divided
by their gcd, which takes the sign of the pivot's lead), and pivots are
integer vectors, not monic ones; values become Fractions only where they
leave the engine: the `entries` and `columns()` views of a matrix, and
what leaves the tracker.

Pivots have one form, (vector, combo), combo None when untracked, and
are kept as they stand.  Over F_p a pivot is the vector the reduction or
the matrix left it, whatever its lead: a reduction step reads 1/lead from
the pivot's own lead (1 and p - 1 are their own inverses, any other is
memoized), and a tracked combo scales with it.  Over Q every pivot,
tracked or not, keeps the sign of its lead: a reduction step gives the
same vector and the same combo against a pivot and its negation, so no
pivot is rebuilt just to be positive.  A column whose lead no pivot
holds becomes a pivot as it stands, uncopied and shared with the matrix
(`SparseMatrix._eliminate`), which is most columns of a bar: (col, None)
untracked and (col, {j: 1}) tracked, over either field, whatever its
content.  A column is copied only when a pivot meets it.  Over Q a pivot
that a reduction made is primitive, jointly with its combo when tracked;
residuals, combos and kernels read as Fractions are the same however a
pivot is scaled.  So nothing may write into a pivot or a matrix column,
and nothing does: a reduction writes only into the vector it is given.  The class trackers behind representatives are seeded with
the previous elimination's pivots, shared (SpanTracker.as_boundaries).

A pivot's lead is the largest index of its vector, and reduction clears
the largest index first.  The lead is a free parameter: rank, span
membership and every combo over independent inserts (kernel vectors,
cohomology representatives, class coordinates, structure constants)
depend only on the order of the inserts and on the span.  Only a nonzero
residual depends on the lead, and callers test residuals for emptiness
alone.  The largest index was chosen, against the smallest and a
Markowitz-style order by row count, because it cuts fill-in: over F_p the
bar of k[x]/x^3 on [-14, 0] stores 89 194 pivot entries against 353 396
under the smallest index.

cohomology() first makes sure that d^2 = 0: by the matrix check
(validate_complex multiplies d_{d+1} d_d on the integer columns), unless
`certified_by` names another check that established it.  The bars set it
when their letter table passes its certificate (koszul.bar), and the dual
assembled from such a table inherits it.

cohomology() eliminates with clearing (Chen and Kerber, "Persistent
homology computation with a twist", 2011; de Silva, Morozov and
Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011; Bauer's
Ripser).  Once d^2 = 0 is known, a pivot v of d_{d-1} lies in its image,
so d_d v = 0 and column lead(v) of d_d is a combination of earlier
columns: `eliminate` skips it.  The tracker's pivots and combos are
those of the full elimination, since the column would have reduced to
zero.  With representatives only its kernel vector z goes, and z was
never chosen: it lies in the span of v and the kernel vectors of earlier
columns, a span the class tracker holds before z would be offered.  So
every cycle left extends the boundary span, and the representatives,
class coordinates and ring constants are unchanged.

Elimination runs on columns, bottom-up, on the complex as given, in one
loop for dims and representatives alike; each rank is the plain rank.
The window's first differential is eliminated in full, so a complex is
cheapest from its smaller end.  Only the bars and their duals choose a
side: koszul.bar assembles the dual from its letter table, builds the bar
as the dual's signed transpose, and reads the dims from whichever starts
at its smaller end (bar._homology_dims).
"""

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm


class EngineError(Exception):
    """Base class for errors raised by the engine."""


class RefusalError(EngineError):
    """A precondition fails in a documented way (bad window, divergent
    weight bound, non-Artin input).  The computation is refused, not wrong."""


class StructuralError(EngineError):
    """Input data violates a structural invariant (d^2 != 0, index out of
    range, inconsistent shapes)."""


class InvalidComplexError(StructuralError):
    """d^2 != 0 somewhere; carries the offending degree."""

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"d^2 != 0 starting at degree {degree}")


# ---------------------------------------------------------------------------
# fields


class Field:
    """The rationals (p=None) or the prime field F_p.

    Elements are Fractions over Q and ints in [0, p) over F_p; the methods
    below are total on valid elements and never lose exactness.
    """

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None:
            if not isinstance(p, int) or p < 2:
                raise RefusalError(f"field characteristic must be a prime, got {p!r}")
            if not _is_prime(p):
                raise RefusalError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self):
        return 0 if self.p is None else self.p

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def of_int(self, n):
        return Fraction(n) if self.p is None else n % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return 1 / Fraction(a)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == 0 if self.p is None else a % self.p == 0

    def parse(self, text):
        """Parse '7', '-3' or '3/2' (the latter only over Q)."""
        text = text.strip()
        if "/" in text:
            if self.p is not None:
                num, _, den = text.partition("/")
                return self.div(self.of_int(int(num)), self.of_int(int(den)))
            return Fraction(text)
        return self.of_int(int(text))

    def format(self, a):
        if self.p is None:
            f = Fraction(a)
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        return str(a % self.p)

    @property
    def name(self):
        return "Q" if self.p is None else f"Fp:{self.p}"

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.p})" if self.p is not None else "Field(Q)"


# Miller-Rabin on the first 13 primes as bases decides primality for every
# n below this bound (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017)); Field refuses p at or above it
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


# Field(p) tests p on every construction, and a process sees few primes
@lru_cache(maxsize=64)
def _is_prime(n):
    """Whether n is prime, for n below _PRIME_BOUND, where the strong
    probable-prime test to _PRIME_BASES is deterministic."""
    if n >= _PRIME_BOUND:
        raise RefusalError(
            f"{n} is too large: primality is decided only below {_PRIME_BOUND}")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


QQ = Field()


# ---------------------------------------------------------------------------
# sparse vectors (dict index -> nonzero scalar)


def vec_add_into(field, acc, vec, coeff):
    """acc += coeff * vec, in place, dropping zeros."""
    p = field.p
    if p is None:
        if not coeff:
            return acc
        zero = field.zero  # a Fraction, so new entries are Fractions
        for i, v in vec.items():
            s = acc.get(i, zero) + coeff * v
            if s:
                acc[i] = s
            else:
                acc.pop(i, None)
        return acc
    if not coeff % p:
        return acc
    for i, v in vec.items():
        s = (acc.get(i, 0) + coeff * v) % p
        if s:
            acc[i] = s
        else:
            acc.pop(i, None)
    return acc


class SpanTracker:
    """Incremental row echelon over sparse dict-vectors.

    Pivots are keyed by their lead, the largest index of the pivot vector,
    and a vector is reduced by clearing its largest index while a pivot
    leads there.  Any lead rule gives the same answers, which depend only
    on the order of the inserts and on the span (see the module
    docstring); the largest index is the rule that cuts fill-in.

    Every pivot is a (vector, combo) pair, combo None when untracked, over
    either field.  Over F_p the vector is stored as the reduction left it,
    tracked or not, and a reduction step reads 1/lead from the pivot's own
    lead, so `as_boundaries` shares the pivots it seeds.  Over Q the
    elimination never forms a Fraction: a vector entering the tracker is
    scaled by the lcm D of its denominators, a reduction step is
    v <- a*v - b*pivot with a, b the two leads divided by their gcd taken
    with the sign of the pivot's lead (so a > 0), and a pivot is an
    integer vector whose lead has either sign.  One that a reduction made
    is primitive, jointly with its combo when tracked; a matrix column
    that met no pivot is kept with whatever content it has, as scaling a
    pivot changes no value that leaves the tracker.  Values leave the
    tracker as Fractions.  A pivot may be the very vector that was
    inserted or a matrix column (`insert_ints`, `SparseMatrix._eliminate`);
    a reduction never writes into one.

    With track=True every inserted vector gets a tag and `reduce` reports
    the expression of the reducible part in terms of the tagged inserts,
    which is how membership certificates, kernels and structure constants
    are extracted everywhere downstream.  Over Q a pivot's combo is integral
    too: the tracker keeps each tag's scale D_t, and a pivot is
    sum(combo[t] * D_t * insert_t), its content divided out jointly with
    the combo's.
    """

    def __init__(self, field, track=False):
        self.field = field
        self.track = track
        # lead index -> (vector, combo), combo None when untracked
        self.pivots = {}
        self._scale = {}  # tag -> D_t (read over Q alone)

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Return (residual, combo): vec = sum(combo[t] * insert_t) + residual."""
        scale, (w,) = _integral_columns(self.field, [vec])
        return self.reduce_ints(w, scale)

    def reduce_ints(self, w, scale):
        """`reduce` of w / scale, w a dict of ints (mod p, scale 1, over
        F_p) that the reduction consumes: Fractions form only as it leaves."""
        return self._leave(*self._reduce_ints(w, scale)[:3])

    def insert(self, vec, tag=None):
        """Insert vec if independent of the current span; return True if it
        extended the span."""
        scale, (w,) = _integral_columns(self.field, [vec])
        return self.insert_ints(w, scale, tag)

    def insert_ints(self, w, scale, tag=None):
        """`insert` of w / scale, w as in `reduce_ints`: the insert consumes
        it, and it may become the pivot itself."""
        w, combo, s, lead = self._reduce_ints(w, scale)
        if not w:
            return False
        self._add_pivot(lead, w, combo, s, scale, tag)
        return True

    def as_boundaries(self):
        """A tracked SpanTracker seeded with this one's pivots, shared, as
        untagged boundaries (empty combos), so that its combos count only
        the vectors inserted later: the class tracker of `cohomology`."""
        seeded = SpanTracker(self.field, track=True)
        seeded.pivots = {lead: (vec, {}) for lead, (vec, _) in self.pivots.items()}
        return seeded

    def _reduce_ints(self, w, scale):
        """Reduce the vector v = w / scale against the pivots in ints, w a
        dict of ints (ints mod p and scale 1 over F_p) that the reduction
        consumes; returns (w, combo, s, lead), lead the largest index of w,
        where no pivot leads, or None when w is zero.  Over Q,
        s * v = sum(combo[t] * D_t * insert_t) + w with w and combo
        integral; over F_p, s = 1 and v = sum(combo[t] * insert_t) + w.

        Over F_p a step against a pivot whose lead is 0 mod p would leave
        the lead in w; it raises StructuralError instead, as the loop would
        never end."""
        pivots, track = self.pivots, self.track
        combo = {} if track else None
        p = self.field.p
        if p is not None:
            while w:
                lead = max(w)
                hit = pivots.get(lead)
                if hit is None:
                    return w, combo, 1, lead
                pvec, pcombo = hit
                c, y = w[lead], pvec[lead]
                # m = -c / y: 1 and p - 1 are their own inverses
                m = -c % p if y == 1 else c if y == p - 1 else -c * _inverse(y, p) % p
                if not m:  # y = 0 mod p: the step would not clear the lead
                    raise StructuralError(f"the pivot at {lead} did not clear its lead")
                for i, x in pvec.items():
                    u = (w.get(i, 0) + m * x) % p
                    if u:
                        w[i] = u
                    else:
                        del w[i]
                if track:
                    for t, x in pcombo.items():
                        u = (combo.get(t, 0) - m * x) % p
                        if u:
                            combo[t] = u
                        else:
                            combo.pop(t, None)
            return w, combo, 1, None
        s = scale
        while w:
            lead = max(w)
            hit = pivots.get(lead)
            if hit is None:
                return w, combo, s, lead
            pvec, pcombo = hit
            x, y = w[lead], pvec[lead]
            # g takes the sign of the pivot's lead, so a > 0 and the step
            # a*w - b*pvec (and combo + b*pcombo) is the same for a pivot
            # and its negation: a pivot keeps the sign of its lead
            g = gcd(x, y) if y > 0 else -gcd(x, y)
            a, b = y // g, x // g
            if a != 1:
                s *= a
                for i in w:
                    w[i] *= a
                if track:
                    for t in combo:
                        combo[t] *= a
            for i, z in pvec.items():
                u = w.get(i, 0) - b * z
                if u:
                    w[i] = u
                else:
                    del w[i]
            if track:
                for t, z in pcombo.items():
                    u = combo.get(t, 0) + b * z
                    if u:
                        combo[t] = u
                    else:
                        del combo[t]
        return w, combo, s, None

    def _leave(self, w, combo, s):
        """A raw (w, combo, s) from `_reduce_ints` as field values."""
        if self.field.p is not None:
            return w, combo
        residual = {i: Fraction(x, s) for i, x in w.items()}
        if combo is not None:
            scale = self._scale
            combo = {t: Fraction(c * scale[t], s) for t, c in combo.items()}
        return residual, combo

    def _add_pivot(self, lead, w, combo, s, scale, tag):
        """Make a new pivot, tagged tag, from the nonzero raw reduction
        (w, combo, s, lead) of the vector being inserted, at scale."""
        p = self.field.p
        if not self.track:
            # over Q made primitive, the sign of its lead kept (a step is
            # the same against a pivot and its negation)
            if p is None and (g := gcd(*w.values())) != 1:
                w = {i: x // g for i, x in w.items()}
            self.pivots[lead] = (w, None)
            return
        if p is not None:
            # w = vec - sum(combo[t] * insert_t), vec insert_tag, as it stands
            pcombo = {t: -c % p for t, c in combo.items()}
            c = (pcombo.get(tag, 0) + 1) % p
            if c:
                pcombo[tag] = c
            else:
                pcombo.pop(tag, None)
            self.pivots[lead] = (w, pcombo)
            return
        # w = s * vec - sum(combo[t] * D_t * insert_t); vec is insert_tag
        d_tag = self._scale.setdefault(tag, scale)
        k = d_tag // gcd(d_tag, s)  # 1 unless tag was used before
        if k != 1:
            w = {i: k * x for i, x in w.items()}
            combo = {t: k * c for t, c in combo.items()}
            s *= k
        pcombo = {t: -c for t, c in combo.items()}
        c = pcombo.get(tag, 0) + s // d_tag
        if c:
            pcombo[tag] = c
        else:
            pcombo.pop(tag, None)
        # content divided out jointly, the sign of the lead kept
        g = gcd(*w.values(), *pcombo.values())
        if g != 1:
            w = {i: x // g for i, x in w.items()}
            pcombo = {t: c // g for t, c in pcombo.items()}
        self.pivots[lead] = (w, pcombo)


@lru_cache(maxsize=1 << 12)
def _inverse(y, p):
    """1/y mod p (0 for y = 0 mod p), for a pivot lead other than 1 and
    p - 1: memoized, as each pivot's lead is read once per step against it."""
    return pow(y, p - 2, p)


# ---------------------------------------------------------------------------
# sparse matrices


class SparseMatrix:
    """Immutable sparse matrix, stored as its integer columns.

    int_columns[j] maps row -> nonzero int.  Over F_p those are the entries,
    in [0, p), and scale is 1.  Over Q the matrix is (1/scale) times its
    integer columns, with scale the least such denominator, so equal
    matrices store equal columns.  `entries` ((row, col) -> scalar) and
    `columns()` are read-only views built on first use; over Q they hold
    Fractions.  The constructor takes entries, rejects duplicate and
    out-of-range coordinates and drops zeros.
    """

    __slots__ = ("field", "rows", "cols", "scale", "int_columns", "_entries", "_columns")

    def __init__(self, field, rows, cols, entries=()):
        if rows < 0 or cols < 0:
            raise StructuralError(f"negative shape ({rows}, {cols})")
        columns = [{} for _ in range(cols)]
        items = entries.items() if isinstance(entries, dict) else entries
        for (i, j), value in items:
            if not (0 <= i < rows and 0 <= j < cols):
                raise StructuralError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            col = columns[j]
            if i in col:
                raise StructuralError(f"duplicate entry at ({i}, {j})")
            col[i] = value
        scale, ints = _integral_columns(field, columns)
        self._store(field, rows, ints, scale)

    @classmethod
    def from_int_columns(cls, field, rows, columns, scale):
        """The matrix (1/scale) * columns, each column a dict row -> nonzero
        int (in [0, p) over F_p, where scale is 1).  The columns are kept,
        not copied, and their rows are not checked."""
        self = cls.__new__(cls)
        self._store(field, rows, columns, scale)
        return self

    def _store(self, field, rows, columns, scale):
        if scale != 1:
            g = scale
            for col in columns:
                if col:
                    g = gcd(g, *col.values())
                    if g == 1:
                        break
            if g != 1:
                scale //= g
                columns = [{i: x // g for i, x in col.items()} for col in columns]
        self.field = field
        self.rows = rows
        self.cols = len(columns)
        self.scale = scale
        self.int_columns = columns
        self._entries = None
        self._columns = None

    @property
    def entries(self):
        """(row, col) -> nonzero scalar, column by column (cached)."""
        if self._entries is None:
            self._entries = {(i, j): x for j, col in enumerate(self.int_columns)
                             for i, x in self._scalars(col).items()}
        return self._entries

    def columns(self):
        """All columns at once, as a list of dict-vectors (cached; callers
        must not mutate the returned dicts)."""
        if self.field.p is not None:
            return self.int_columns
        if self._columns is None:
            self._columns = [self._scalars(col) for col in self.int_columns]
        return self._columns

    def column(self, j):
        """Column j as a dict-vector (callers must not mutate it)."""
        if self._columns is not None:
            return self._columns[j]
        return self._scalars(self.int_columns[j])

    def _scalars(self, col):
        """An integer column as field values."""
        if self.field.p is not None:
            return col
        scale = self.scale
        return {i: Fraction(x, scale) for i, x in col.items()}

    def is_zero(self):
        return not any(self.int_columns)

    def apply(self, vec):
        """Matrix times a sparse column vector (dict col -> scalar)."""
        field = self.field
        out = {}
        if not vec:
            return out
        cols = self.columns()
        for j, c in vec.items():
            if not (0 <= j < self.cols):
                raise StructuralError(f"vector index {j} outside {self.cols} columns")
            vec_add_into(field, out, cols[j], c)
        return out

    def eliminate(self, track=False, skip=()):
        """Column elimination, the engine's one elimination.

        Absorbs the integer columns into a SpanTracker in order, reducing
        each once; returns (tracker, kernel).  The tracker's pivots span the
        image.  With track=True each pivot's combo is over column indices
        and kernel lists e_j - combo for every column j that reduced to zero
        (a basis of the kernel, cols - rank vectors); otherwise kernel is
        None.

        The columns whose indices are in skip are neither reduced nor listed
        in the kernel.  Pass only columns already known to be combinations
        of earlier ones (clearing, in `cohomology`): such a column would
        reduce to zero, so the tracker is the one the full elimination
        leaves, and kernel lacks exactly the skipped columns' vectors.
        """
        tracker, kernel = self._eliminate(track, skip)
        if track and self.field.p is None:
            kernel = [{i: Fraction(x, s) for i, x in z.items()} for z, s in kernel]
        elif track:
            kernel = [z for z, _ in kernel]
        return tracker, kernel

    def int_kernel(self):
        """The kernel basis of `nullspace_basis` in ints, as (z, s) pairs:
        the vector of column j is z / s over Q, with s = z[j] > 0, and z
        itself (ints mod p, s = 1) over F_p."""
        return self._eliminate(True, ())[1]

    def _eliminate(self, track, skip):
        """`eliminate`, each kernel vector as its (z, s) of `int_kernel`."""
        tracker = SpanTracker(self.field, track)
        pivots = tracker.pivots
        kernel = [] if track else None
        scale, p = self.scale, self.field.p
        for j, col in enumerate(self.int_columns):
            if j in skip:
                continue
            if col:
                lead = max(col)
                if lead not in pivots:
                    # the column meets no pivot: it becomes one as it
                    # stands, uncopied, in either mode over either field
                    if track:
                        tracker._scale[j] = scale
                    pivots[lead] = (col, {j: 1} if track else None)
                    continue
            w, combo, s, lead = tracker._reduce_ints(dict(col), scale)
            if w:
                tracker._add_pivot(lead, w, combo, s, scale, j)
            elif track:
                # (s / scale) * column j = sum(combo[t] * column t), the
                # columns in ints; s = scale = 1 over F_p
                z = {j: s}
                for t, c in combo.items():
                    z[t] = -c * scale % p if p else -c * scale
                kernel.append((z, s))
        return tracker, kernel

    def rank(self):
        return self.eliminate()[0].rank

    def nullspace_basis(self):
        """Basis of the kernel, as dict-vectors over column indices: the
        kernel of a tracked `eliminate`."""
        return self.eliminate(track=True)[1]

    def __repr__(self):
        nnz = sum(map(len, self.int_columns))
        return f"SparseMatrix({self.rows}x{self.cols}, {nnz} entries)"


def _integral_columns(field, columns):
    """(D, integer columns) for columns of field values, zeros dropped:
    over Q the columns are 1/D times the integer ones, D the lcm of every
    denominator; over F_p D is 1 and the ints are reduced mod p."""
    p = field.p
    if p is not None:
        return 1, [{i: x % p for i, x in col.items() if x % p} for col in columns]
    scale = lcm(*(x.denominator for col in columns for x in col.values()))
    if scale == 1:
        return 1, [{i: x.numerator for i, x in col.items() if x} for col in columns]
    return scale, [{i: x.numerator * (scale // x.denominator) for i, x in col.items() if x}
                   for col in columns]


# ---------------------------------------------------------------------------
# degree windows and complex slices


class Window:
    """A closed interval [lo, hi] of cohomological degrees."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise RefusalError(f"empty degree window [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __contains__(self, d):
        return self.lo <= d <= self.hi

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def interior(self):
        return range(self.lo + 1, self.hi)

    def padded(self):
        return Window(self.lo - 1, self.hi + 1)

    def mirrored(self):
        return Window(-self.hi, -self.lo)

    def __eq__(self, other):
        return isinstance(other, Window) and (other.lo, other.hi) == (self.lo, self.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Window({self.lo}, {self.hi})"


class Listing(Sequence):
    """A tuple of labels of known length, which make() lists on first read,
    once: a bar's chains, whose dims and ranks read only their number.  It
    reads, compares, hashes and prints as that tuple."""

    def __init__(self, length, make):
        self._len, self._make = length, make

    @cached_property
    def listed(self):
        return self._make()

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        return self.listed[i]

    def __iter__(self):
        return iter(self.listed)

    def __eq__(self, other):
        return self.listed == other

    def __hash__(self):
        return hash(self.listed)

    def __repr__(self):
        return repr(self.listed)


class CochainComplexSlice:
    """A cochain complex materialized on a degree window.

    basis maps degree -> tuple of labels, or a Listing (kept as given, its
    labels listed on first read); diff maps degree d to the matrix of
    d_d : C^d -> C^{d+1} (rows indexed by the degree d+1 basis, columns by the
    degree d basis).  Degrees absent from basis are zero.  The differential
    raises degree by exactly one.
    """

    def __init__(self, field, window, basis, diff):
        self.field = field
        self.window = window
        self.basis = {d: labels if isinstance(labels, Listing) else tuple(labels)
                      for d, labels in basis.items() if labels}
        for d in self.basis:
            if d not in window:
                raise StructuralError(f"basis at degree {d} outside window {window!r}")
        self.diff = {}
        for d, m in diff.items():
            nd, nd1 = self.dim(d), self.dim(d + 1)
            if (m.rows, m.cols) != (nd1, nd):
                raise StructuralError(
                    f"differential at degree {d} has shape {m.rows}x{m.cols}, "
                    f"expected {nd1}x{nd}")
            if not m.is_zero():
                self.diff[d] = m
        # what established d^2 = 0 without the matrix check: "letters" (a
        # bar's letter table), "transpose" (the dual assembled from such a
        # table), or None
        self.certified_by = None

    def dim(self, d):
        return len(self.basis.get(d, ()))

    def dims(self):
        return {d: len(b) for d, b in sorted(self.basis.items())}

    def d_at(self, d):
        m = self.diff.get(d)
        if m is None:
            return SparseMatrix(self.field, self.dim(d + 1), self.dim(d))
        return m

    def d_squared_failure(self):
        """The first (degree d, column j) where d_{d+1} d_d is nonzero, over
        the degrees d with d, d+1, d+2 in the window; None when d^2 = 0.

        The product is taken on the integer columns (over Q it is 1/(D D')
        times theirs), reduced mod p over F_p."""
        p = self.field.p
        for d in range(self.window.lo, self.window.hi - 1):
            outer, inner = self.d_at(d + 1), self.d_at(d)
            if outer.is_zero() or inner.is_zero():
                continue
            cols = outer.int_columns
            for j, col in enumerate(inner.int_columns):
                acc = {}
                for k, b in col.items():
                    for i, a in cols[k].items():
                        acc[i] = acc.get(i, 0) + b * a
                if any(x % p for x in acc.values()) if p else any(acc.values()):
                    return d, j
        return None

    def validate_complex(self):
        """Check d^2 = 0 for every degree d with d, d+1, d+2 in the window."""
        failure = self.d_squared_failure()
        if failure is not None:
            raise InvalidComplexError(failure[0])

    def cohomology(self, representatives=True):
        """Cohomology on the interior of the window.

        Reliable degrees are those d with d-1, d, d+1 all in the window; the
        two boundary degrees are only flagged.  Validates d^2 = 0 first, by
        the matrix check unless certified_by is set: the loop clears (see
        the module docstring), skipping the columns that d^2 = 0 shows to
        be dependent, which is exact only once d^2 = 0 is known.

        Both modes run one loop on the complex as given.  d_lo is eliminated
        untracked; each later d_d skips the columns at the leads of
        d_{d-1}'s pivots and is tracked only for representatives.  Each
        rank is the plain rank of d_d, and dims come by rank-nullity.  With
        representatives the boundaries at degree d are d_{d-1}'s pivots;
        the cycles are the kernel vectors of the columns left, and each
        extends the boundary span, so they are the representatives (a cycle
        that does not raises InvalidComplexError).  The class tracker this
        leaves behind gives the report's class coordinates.
        """
        if self.certified_by is None:
            self.validate_complex()
        field, window = self.field, self.window
        dims, reps, classes = {}, {}, {}
        below = self.d_at(window.lo).eliminate()[0]
        ranks = {window.lo: below.rank} if window.lo < window.hi else {}
        for d in window.interior():
            # a column at a boundary pivot's lead is cleared: its cycle
            # lies in the boundaries plus the earlier cycles
            above, cycles = self.d_at(d).eliminate(track=representatives, skip=below.pivots)
            ranks[d] = above.rank
            dims[d] = self.dim(d) - ranks[d] - ranks[d - 1]
            if representatives:
                tracker = below.as_boundaries()
                chosen = []
                for z in cycles:
                    if tracker.insert(z, tag=len(chosen)):
                        chosen.append(z)
                if len(chosen) != dims[d]:
                    raise InvalidComplexError(d, "boundaries escape the cycle space")
                reps[d] = tuple(chosen)
                classes[d] = tracker
            below = above
        unreliable = frozenset({window.lo, window.hi})
        return CohomologyReport(
            field=field, window=window, dims=dims, unreliable=unreliable,
            representatives=reps if representatives else None, classes=classes,
            ranks=ranks)


def complex_from_labels(field, window, basis, boundary):
    """The cochain complex on window with basis[d] the labels of degree d.

    boundary(label) gives the terms of d(label) as (label', scalar) pairs,
    label' in the next degree's basis; repeated labels are summed.  Only
    differentials that stay inside the window are assembled.  A term
    outside the next degree's basis raises StructuralError, naming the
    label and the term.
    """
    basis = {d: tuple(labels) for d, labels in basis.items() if labels}
    diffs = {}
    for d, labels in sorted(basis.items()):
        if d + 1 not in window:
            continue
        targets = basis.get(d + 1, ())
        index = dict(zip(targets, range(len(targets))))
        cols = []
        for label in labels:
            col = {}
            for term, c in boundary(label):
                i = index.get(term)
                if i is None:
                    raise StructuralError(
                        f"d({label!r}) has term {term!r} outside the degree {d + 1} basis")
                col[i] = col[i] + c if i in col else c
            cols.append(col)
        scale, cols = _integral_columns(field, cols)
        diffs[d] = SparseMatrix.from_int_columns(field, len(targets), cols, scale)
    return CochainComplexSlice(field, window, basis, diffs)


class CohomologyReport:
    """Cohomology dimensions on the reliable degrees of a window.

    dims covers exactly the interior degrees; the window's two boundary
    degrees appear in `unreliable` and get no number at all.  When a ring
    structure has been computed, `ring` maps ((d1, i1), (d2, i2)) to the
    lincomb {(d3, i3): scalar} of the product of the chosen representatives,
    and `ring_skipped` lists representative pairs whose product degree was
    not reliable.  With representatives, `coords(d, vec)` gives the class
    of a degree-d cocycle in their basis.  ranks maps each d with
    lo <= d < hi to the rank of d_d, as the elimination found it.
    """

    def __init__(self, field, window, dims, unreliable, representatives=None,
                 classes=None, ranks=None):
        self.field = field
        self.window = window
        self.dims = dims
        self.ranks = ranks
        self.unreliable = unreliable
        self.representatives = representatives
        self.ring = None
        self.ring_skipped = ()
        self._classes = classes or {}  # degree -> SpanTracker of boundaries + reps

    def dim(self, d):
        if d in self.unreliable or d not in self.dims:
            if d in self.window and d in self.unreliable:
                raise RefusalError(f"degree {d} is at the window boundary and unreliable")
            return 0
        return self.dims[d]

    def coords(self, d, vec):
        """Class coordinates {i: scalar} of the degree-d cocycle vec modulo
        boundaries: vec = sum(c_i * representatives[d][i]) + a boundary.

        Raises StructuralError when vec is not a cocycle, and RefusalError
        at a degree without representatives (unreliable, or cohomology was
        taken without them)."""
        scale, (w,) = _integral_columns(self.field, [vec])
        return self.int_coords(d, w, scale)

    def int_coords(self, d, w, scale):
        """`coords` of the cocycle w / scale, w as in SpanTracker.reduce_ints:
        the entry of the ring constants (dga.cohomology_ring)."""
        tracker = self._classes.get(d)
        if tracker is None:
            raise RefusalError(f"no class representatives at degree {d}")
        residual, combo = tracker.reduce_ints(w, scale)
        if residual:
            raise StructuralError(f"vector is not a degree-{d} cocycle")
        return combo

    def nonzero_dims(self):
        return {d: n for d, n in sorted(self.dims.items()) if n}

    def __repr__(self):
        return f"CohomologyReport({self.nonzero_dims()}, unreliable={sorted(self.unreliable)})"
