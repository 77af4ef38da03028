"""The Koszul dual: graded dual of the bar coalgebra.

Dualizing the bar slice degreewise puts the functional on a word of bar
degree -d in degree d.  The product is convolution against deconcatenation,
which on the word basis is concatenation with the Koszul sign of the two
functionals; the unit is the functional dual to the empty word and the
augmentation is evaluation at the empty word.  The differential is the
signed transpose of the bar's, d_d = (-1)^d (d_{-d-1})^T: the cobar of the
dual coalgebra, B(A)^v = Omega(A^v), whose integer columns koszul.bar
assembles from the bar's letter table read by row, with no bar matrix
built and none transposed (bar.dual_complex).  The dual of a slice is a
FiniteDga over that complex, so the generic validators apply to it.  Its
dims are the bar's, mirrored.  Elimination runs on a complex as given,
from its low end, so DualSlice.homology_dims, and bidual_cohomology
through it, read them from this complex or, for a coconnected algebra,
from the bar, whichever starts at its smaller end (bar._homology_dims,
the one place that chooses a side).

Its ring constants (dual_cohomology_ring) are taken in ints, on index
vectors: a product of representatives is a signed sum of shifted copies
of the second.  The FiniteDga's product on labels serves the rest.

Cohomology of the dual slice is Ext over the input algebra in every
reliable degree; the resolution oracle in extres recomputes the same
numbers without any bar construction.
"""

from .exactla import Window, RefusalError, _integral_columns
from .dga import FiniteDga, cohomology_ring, _linear
from .bar import _homology_dims, dual_complex, weight_bound


class DualSlice:
    """The Koszul dual of a spec, materialized on a window.

    algebra is a FiniteDga whose labels are the bar words; window is the
    requested window (the algebra itself covers one padded degree more on
    each side, so cohomology is reliable on all requested degrees);
    max_weight is the weight cap, the most letters a word of its basis
    has; chains is the bar's, on the mirrored window (bar._Chains)."""

    def __init__(self, spec, window, algebra, chains):
        self.spec = spec
        self.window = window
        self.algebra = algebra
        self.field = spec.field
        self.max_weight = chains.cap
        self.chains = chains

    def homology_dims(self):
        """Ext dimensions (cohomology of the dual) on the requested degrees:
        the bar's dims, mirrored, read from this complex or from the bar,
        whichever starts at its smaller end (bar._homology_dims)."""
        dims = _homology_dims(self.chains, dual=self.algebra.complex())
        return {d: dims[-d] for d in self.window.degrees()}

    def cohomology(self, representatives=True):
        return self.algebra.cohomology(representatives=representatives)

    def validate(self):
        return self.algebra.validate()

    def as_spec(self, name=None):
        return self.algebra.as_spec(name or f"dual({self.spec.name})")

    def __repr__(self):
        return f"DualSlice({self.spec.name}, window={self.window!r})"


def koszul_dual_slice(spec, window):
    """Materialize the Koszul dual of spec on a window.

    Its complex is the dual of the bar on the mirrored window
    (bar.dual_complex): label degrees flip sign, the differential is the
    transpose with the sign (df)(x) = (-1)^{|f|} f(dx), assembled from the
    bar's letter table without building the bar, and words multiply by
    concatenation with the Koszul sign of their degrees.  Convergence
    refusals propagate from the bar side.
    """
    complex_, chains = dual_complex(spec, window)
    field = spec.field
    one, neg = field.one, field.neg

    def word_degree(word):
        return -sum(spec.degree(l) - 1 for l in word)

    def mult_fn(x, y):
        exp = word_degree(x) * word_degree(y)
        return {x + y: one if exp % 2 == 0 else neg(one)}

    algebra = FiniteDga(
        complex_, mult_fn, unit=(), aug={(): one} if 0 in complex_.window else {},
        complete=False, name=f"dual({spec.name})")
    return DualSlice(spec, window, algebra, chains)


def dual_cohomology_dims(spec, window):
    """Ext dims of spec on the requested degrees, via the dual slice."""
    return koszul_dual_slice(spec, window).homology_dims()


def dual_cohomology_ring(spec, window):
    """Cohomology of the dual slice with structure constants.

    Products are taken on index vectors (_index_product).  The constants
    depend on the chosen cocycle representatives; only basis-independent
    statements (dimensions, powers being nonzero or spanning, nilpotence)
    are stable answers.
    """
    dual = koszul_dual_slice(spec, window)
    return cohomology_ring(dual.algebra, product=_index_product(dual))


def _index_product(dual):
    """The dual's product of representatives for cohomology_ring, in ints:
    words x, y of degrees d1, d2 multiply to (-1)^{d1 d2} x ++ y, word
    P(x) + index(y) of chains(-d1 - d2) (_ChainEnumerator.prefixes), so
    r1 r2 = (-1)^{d1 d2} sum_i r1[i] (r2 shifted by P(x_i)), over the
    representatives made integral once per degree.  The copies never meet:
    the letters' shifted degrees have one sign, so x ++ y splits once."""
    field, p = dual.field, dual.field.p
    prefixes, ints = dual.chains.table.enum.prefixes, {}  # degree -> (scale, ints)

    def product(reps, d1, i1, d2, i2):
        for d in {d1, d2} - ints.keys():
            ints[d] = _integral_columns(field, reps[d])
        (s1, reps1), (s2, reps2) = ints[d1], ints[d2]
        shift, sign = prefixes(-d1, -d1 - d2), -1 if d1 * d2 % 2 else 1
        y = reps2[i2].items()
        w = {}
        for i, c in reps1[i1].items():
            o, c = shift[i], sign * c
            w.update({o + j: c * x % p for j, x in y} if p else {o + j: c * x for j, x in y})
        return w, s1 * s2

    return product


def check_power_generation(report, g):
    """True iff the reported cohomology is one-dimensional exactly at the
    nonnegative multiples of g and the powers of a degree-g class stay
    nonzero through every reliable degree.

    report must carry ring structure constants (dual_cohomology_ring)."""
    if not isinstance(g, int) or g < 1:
        raise RefusalError(f"generator degree must be a positive integer, got {g!r}")
    if report.ring is None:
        raise RefusalError("power generation needs a report with ring structure")
    field = report.field
    for d, n in report.dims.items():
        want = 1 if (d >= 0 and d % g == 0) else 0
        if n != want:
            return False
    if report.dims.get(g, 0) != 1:
        return False

    gen = (g, 0)
    power = {gen: field.one}
    m = 1
    while (m + 1) * g in report.dims:
        power = _linear(field, lambda cls: report.ring.get((cls, gen), {}), power)
        if not power:
            return False
        m += 1
    return True


def bidual_cohomology(spec, window):
    """Cohomology dims of the double dual on the requested window.

    The inner dual is computed on a window deep enough that every product
    the outer bar construction needs is honest.  Refused (as
    "non-convergent biduality") when the dual is not coconnected enough:
    a finite outer weight bound requires the dual's augmentation-ideal
    cohomology to sit in degrees >= 2, anything in degrees <= 1 makes the
    outer weight filtration non-stabilizing.
    """
    outer_bar_window = window.mirrored().padded()
    inner_hi = max(3, outer_bar_window.hi + 2)
    inner = koszul_dual_slice(spec, Window(-2, inner_hi))

    dims = inner.homology_dims()
    for d, n in dims.items():
        if d < 0 and n:
            raise RefusalError(
                f"non-convergent biduality: dual of {spec.name} has cohomology "
                f"in negative degree {d}")
    if dims.get(0, 0) > 1:
        raise RefusalError(
            f"non-convergent biduality: dual of {spec.name} has "
            "augmentation-ideal cohomology in degree 0")

    dual_spec = inner.as_spec()
    if weight_bound(dual_spec, outer_bar_window) is None:
        raise RefusalError(
            f"non-convergent biduality: dual of {spec.name} has generators in "
            "degree <= 1, the outer weight filtration does not stabilize")

    outer = koszul_dual_slice(dual_spec, window)
    return outer.homology_dims()
