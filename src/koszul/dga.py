"""Augmented dg algebras, presented degreewise, and their window slices.

A DgAlgebraSpec describes a possibly infinite-dimensional algebra through a
per-degree basis enumerator together with differential, multiplication and
augmentation on basis labels.  Slicing a spec over a degree window produces a
FiniteDga: honest structure constants inside the window, with anything
landing outside truncated to zero and the affected degrees recorded.

Conventions used throughout the package: the differential raises
cohomological degree by one, a shift satisfies (M[n])^i = M^{i+n} (so k[n]
sits in degree -n), and the unit is itself a basis label whose augmentation
value is 1 while all other basis labels augment to 0.
"""

from functools import cached_property

from .exactla import (
    Window, CochainComplexSlice, SpanTracker,
    RefusalError, StructuralError, complex_from_labels, vec_add_into,
    _integral_columns,
)

# Linear combinations of basis labels are plain dicts {label: nonzero scalar};
# the vec_* helpers from exactla work on them unchanged.


def lc_equal(field, a, b):
    keys = set(a) | set(b)
    zero = field.zero
    for k in keys:
        if not field.is_zero(field.sub(a.get(k, zero), b.get(k, zero))):
            return False
    return True


def _linear(field, f, v):
    """f, a map from basis keys (labels or indices) to linear combinations,
    extended linearly and applied to v."""
    out = {}
    for x, c in v.items():
        vec_add_into(field, out, f(x), c)
    return out


def _bilinear(field, f, u, v):
    """f, a map from pairs of basis keys to linear combinations, extended
    bilinearly and applied to (u, v)."""
    out = {}
    for x, a in u.items():
        for y, b in v.items():
            vec_add_into(field, out, f(x, y), field.mul(a, b))
    return out


def _check_leibniz(field, report, name, pairs, mul, d_x, d_y, d_xy):
    """Fail axiom `name` of report at each (x, y) of the (x, y, |x|) of
    pairs with d(xy) != (dx)y + (-1)^{|x|} x(dy).  mul multiplies basis
    keys; d_x, d_y and d_xy differentiate left factors, right factors and
    products.  pairs is walked once, in its order, so it may be a
    generator; the first failure is the witness kept."""
    minus = field.neg(field.one)
    for x, y, x_degree in pairs:
        lhs = _linear(field, d_xy, mul(x, y))
        rhs = _linear(field, lambda w: mul(w, y), d_x(x))
        vec_add_into(field, rhs, _linear(field, lambda w: mul(x, w), d_y(y)),
                     field.one if x_degree % 2 == 0 else minus)
        if not lc_equal(field, lhs, rhs):
            report.fail(name, (x, y))


def _check_associative(field, report, name, triples, mul_xy, mul_xy_z, mul_yz, mul_x_yz):
    """Fail axiom `name` of report at each (x, y, z) of triples with
    (xy)z != x(yz), triples walked as pairs are in _check_leibniz.  The
    four products xy, (xy)z, yz and x(yz) are given on basis keys: an
    algebra's product for all four, a module's action where a factor is
    a module element."""
    for x, y, z in triples:
        lhs = _linear(field, lambda w: mul_xy_z(w, z), mul_xy(x, y))
        rhs = _linear(field, lambda w: mul_x_yz(x, w), mul_yz(y, z))
        if not lc_equal(field, lhs, rhs):
            report.fail(name, (x, y, z))


def _augmentation_ideal(field, unit, aug):
    """A basis of the augmentation ideal of the algebra with basis vectors
    e_i, unit the unit's vector and aug[i] the augmentation of e_i: the
    e_i - aug[i] unit that are nonzero and extend the span of those before
    them."""
    tracker = SpanTracker(field)
    ideal = []
    for i, c in enumerate(aug):
        v = vec_add_into(field, {i: field.one}, unit, field.neg(c))
        if v and tracker.insert(v):
            ideal.append(v)
    return ideal


def _power_dims(field, ideal, layer, product):
    """The dims of L, I.L, I^2.L, ... down to 0, for I and L spanned by the
    independent vectors ideal and layer and product(i, j) the product of
    basis vectors e_i and e_j; None when a power stops shrinking, as it
    then never vanishes."""
    dims = [len(layer)]
    while layer:
        tracker = SpanTracker(field)
        layer_next = [w for a in ideal for v in layer
                      if (w := _bilinear(field, product, a, v)) and tracker.insert(w)]
        if len(layer_next) >= len(layer):
            return None
        dims.append(len(layer_next))
        layer = layer_next
    return dims


class DgAlgebraSpec:
    """An augmented dg algebra given by degreewise basis enumeration.

    basis(d) returns a finite ordered tuple of labels for degree d; degree,
    diff, mult and aug act on labels, with diff/mult returning lincombs.
    min_degree/max_degree bound the degrees where the basis can be nonempty
    (None meaning unbounded on that side); the bar construction relies on
    them to settle convergence without scanning all of Z.
    """

    def __init__(self, field, name, basis, degree, diff, mult, unit, aug,
                 min_degree=None, max_degree=None):
        self.field = field
        self.name = name
        self._basis = basis
        self._degree = degree
        self._diff = diff
        self._mult = mult
        self.unit = unit
        self._aug = aug
        self.min_degree = min_degree
        self.max_degree = max_degree

    def basis(self, d):
        if self.min_degree is not None and d < self.min_degree:
            return ()
        if self.max_degree is not None and d > self.max_degree:
            return ()
        return tuple(self._basis(d))

    def degree(self, label):
        return self._degree(label)

    def diff(self, label):
        return self._diff(label)

    def mult(self, a, b):
        return self._mult(a, b)

    def aug(self, label):
        return self._aug(label)

    def __repr__(self):
        return f"DgAlgebraSpec({self.name})"


class ValidationReport:
    """Outcome of the axiom checks, one verdict per named axiom plus the
    first witnessing basis tuple for each failure.  Each listed axiom holds
    until fail(name, witness) records a witness against it."""

    def __init__(self, subject, axioms):
        self.subject = subject
        self.checks = dict.fromkeys(axioms, True)
        self.witnesses = {}

    def fail(self, name, witness):
        """Mark axiom name as failing; only its first witness is kept."""
        if self.checks[name]:
            self.checks[name] = False
            self.witnesses[name] = witness

    @property
    def ok(self):
        return all(self.checks.values())

    def __bool__(self):
        return self.ok

    def raise_if_failed(self):
        if not self.ok:
            name = next(n for n, v in self.checks.items() if not v)
            raise StructuralError(
                f"{self.subject}: axiom '{name}' fails at {self.witnesses.get(name)!r}")

    def __repr__(self):
        bad = {n: self.witnesses.get(n) for n, v in self.checks.items() if not v}
        return f"ValidationReport(ok={self.ok}, failures={bad})"


class FiniteDga:
    """An augmented dg algebra materialized on a degree window.

    complex_ is the underlying CochainComplexSlice: the window, the basis and
    the differential are its, and diff(label) reads the label's column of d
    (memoized per label); index is built on first read, and read at once
    where labels come from outside.  Products are computed lazily through
    mult_fn and memoized; a product whose degree falls outside the window
    is zero here; diff_lc and mult_lc are their _linear and _bilinear
    extensions.  complete=True asserts the window contains the entire
    algebra, which makes every stored number honest rather than merely
    window-accurate.
    """

    def __init__(self, complex_, mult_fn, unit, aug, complete, name="", spec=None):
        self.field = field = complex_.field
        self.window = complex_.window
        self.basis = complex_.basis
        self.unit = unit
        self.name = name
        self.spec = spec
        self.complete = complete
        self.aug = {}
        for l, c in aug.items():
            if field.is_zero(c):
                continue
            if l not in self.basis.get(0, ()):
                raise StructuralError(
                    f"augmentation is nonzero on {l!r} outside degree 0" if l in self.index
                    else f"augmentation is given on {l!r}, which is not a basis label")
            self.aug[l] = c
        self._mult_fn = mult_fn
        self._mult_memo = {}
        self._diff_memo = {}
        self._complex = complex_

    @cached_property
    def index(self):
        """label -> (degree, position); a label listed twice, in one degree
        or in two, raises StructuralError."""
        index = {}
        for d, labels in self.basis.items():
            for i, l in enumerate(labels):
                if l in index:
                    raise StructuralError(f"duplicate basis label {l!r}")
                index[l] = (d, i)
        return index

    # -- basic queries ----------------------------------------------------

    def degree(self, label):
        try:
            return self.index[label][0]
        except KeyError:
            raise StructuralError(f"unknown basis label {label!r}") from None

    def labels(self, d):
        return self.basis.get(d, ())

    def dim(self, d):
        return len(self.basis.get(d, ()))

    def dims(self):
        return {d: len(ls) for d, ls in sorted(self.basis.items())}

    def total_dimension(self):
        return sum(len(ls) for ls in self.basis.values())

    def aug_of(self, label):
        return self.aug.get(label, self.field.zero)

    def aug_of_vector(self, vec):
        """The augmentation of a degree-0 index vector."""
        field, labels = self.field, self.labels(0)
        total = field.zero
        for i, c in vec.items():
            total = field.add(total, field.mul(c, self.aug_of(labels[i])))
        return total

    # -- structure maps ---------------------------------------------------

    def diff(self, label):
        lc = self._diff_memo.get(label)
        if lc is None:
            d = self.degree(label)
            m = self._complex.diff.get(d)
            lc = {}
            if m is not None:
                targets = self.basis[d + 1]
                lc = {targets[i]: c for i, c in m.column(self.index[label][1]).items()}
            self._diff_memo[label] = lc
        return lc

    def diff_lc(self, lc):
        return _linear(self.field, self.diff, lc)

    def mult(self, a, b):
        key = (a, b)
        hit = self._mult_memo.get(key)
        if hit is not None:
            return hit
        d3 = self.degree(a) + self.degree(b)
        if d3 not in self.window:
            lc = {}
        else:
            lc = {m: c for m, c in self._mult_fn(a, b).items() if not self.field.is_zero(c)}
            for m in lc:
                if m not in self.index or self.index[m][0] != d3:
                    raise StructuralError(
                        f"product {a!r}*{b!r} has a term {m!r} not in the degree {d3} basis")
        self._mult_memo[key] = lc
        return lc

    def mult_lc(self, lca, lcb):
        return _bilinear(self.field, self.mult, lca, lcb)

    def vector(self, lc, d):
        """Index-vector of a lincomb concentrated in degree d."""
        out = {}
        for l, c in lc.items():
            dd, i = self.index[l]
            if dd != d:
                raise StructuralError(f"label {l!r} has degree {dd}, expected {d}")
            out[i] = c
        return out

    def lincomb(self, vec, d):
        labels = self.labels(d)
        return {labels[i]: c for i, c in vec.items()}

    # -- derived structures -----------------------------------------------

    def complex(self):
        return self._complex

    def cohomology(self, representatives=True):
        return self.complex().cohomology(representatives=representatives)

    def as_spec(self, name=None):
        """Re-present this slice as a spec that is truthful inside the window
        (and silent outside; callers must ensure their window arithmetic never
        needs degrees this slice cannot see)."""
        degrees = sorted(self.basis)
        lo = degrees[0] if degrees else 0
        hi = degrees[-1] if degrees else 0
        return DgAlgebraSpec(
            self.field, name or f"{self.name}|slice",
            basis=lambda d: self.basis.get(d, ()),
            degree=lambda l: self.index[l][0],
            diff=self.diff,
            mult=self.mult,
            unit=self.unit,
            aug=self.aug_of,
            min_degree=lo, max_degree=hi)

    # -- axioms -------------------------------------------------------------

    def validate(self):
        """Check d^2, Leibniz, associativity, unit and augmentation axioms.

        Each check is restricted to basis tuples for which every intermediate
        degree lies in the window, so truncation can never produce a spurious
        failure; a genuine sign error always leaves a witness on some small
        window.  Leibniz and associativity are _check_leibniz and
        _check_associative, on tuples generated in label order.
        """
        field, w = self.field, self.window
        report = ValidationReport(self.name or "dg algebra", [
            "d_squared", "leibniz", "associativity", "unit", "augmentation"])
        failure = self._complex.d_squared_failure()
        if failure is not None:
            d, j = failure
            report.fail("d_squared", (self.basis[d][j],))

        all_labels = [(d, l) for d, ls in sorted(self.basis.items()) for l in ls]
        mult, diff = self.mult, self.diff
        _check_leibniz(field, report, "leibniz", (
            (a, b, d1) for d1, a in all_labels if d1 + 1 in w
            for d2, b in all_labels if d2 + 1 in w and d1 + d2 in w and d1 + d2 + 1 in w),
            mult, diff, diff, diff)
        _check_associative(field, report, "associativity", (
            (a, b, c) for d1, a in all_labels for d2, b in all_labels if d1 + d2 in w
            for d3, c in all_labels if d2 + d3 in w and d1 + d2 + d3 in w),
            mult, mult, mult, mult)

        if 0 in w:
            if self.unit not in self.index or self.index[self.unit][0] != 0:
                report.fail("unit", (self.unit,))
            else:
                for d, a in all_labels:
                    if (not lc_equal(field, self.mult(self.unit, a), {a: field.one})
                            or not lc_equal(field, self.mult(a, self.unit), {a: field.one})):
                        report.fail("unit", (a,))

        if 0 in w and self.unit in self.index:
            if not field.is_zero(field.sub(self.aug_of(self.unit), field.one)):
                report.fail("augmentation", (self.unit,))
            zero_labels = self.labels(0)
            for a in zero_labels:
                for b in zero_labels:
                    got = self.aug_of_vector(self.vector(self.mult(a, b), 0))
                    want = field.mul(self.aug_of(a), self.aug_of(b))
                    if not field.is_zero(field.sub(got, want)):
                        report.fail("augmentation", (a, b))
            for l in self.labels(-1):
                if not field.is_zero(self.aug_of_vector(self.vector(self.diff(l), 0))):
                    report.fail("augmentation", (l,))

        return report

    def __repr__(self):
        return f"FiniteDga({self.name}, window={self.window!r}, dims={self.dims()})"


def algebra_slice(spec, window):
    """Materialize a spec over a window.

    The slice is marked complete when the spec's degree bounds certify that
    the window holds the entire basis.
    """
    basis = {}
    for d in window.degrees():
        labels = spec.basis(d)
        for l in labels:
            if spec.degree(l) != d:
                raise StructuralError(
                    f"{spec.name}: basis({d}) lists {l!r} of degree {spec.degree(l)}")
        if labels:
            basis[d] = labels

    complete = (spec.min_degree is not None and spec.max_degree is not None
                and window.lo <= spec.min_degree and spec.max_degree <= window.hi)

    fdga = FiniteDga(
        complex_from_labels(spec.field, window, basis, lambda l: spec.diff(l).items()),
        spec.mult, spec.unit,
        {l: spec.aug(l) for l in basis.get(0, ())},
        complete, name=f"{spec.name}[{window.lo},{window.hi}]", spec=spec)
    fdga.index  # the labels come from outside: a repeat is refused now
    return fdga


def finite_dga_from_tables(field, window, basis, diff, mult_table, unit, aug,
                           complete, name=""):
    """Build a FiniteDga from explicit finite tables (diff and mult_table
    map labels and label pairs to lincombs; missing entries are zero)."""
    degree_of = {l: d for d, ls in basis.items() for l in ls}
    for l, lc in diff.items():
        if l not in degree_of:
            raise StructuralError(f"differential given for unknown label {l!r}")
        # the assembler only visits degrees whose successor is in the window
        if lc and degree_of[l] + 1 not in window:
            raise StructuralError(
                f"d({l!r}) is nonzero but degree {degree_of[l] + 1} is outside {window!r}")
    for pair in mult_table:
        for l in pair:
            if l not in degree_of:
                raise StructuralError(f"product given for unknown label {l!r}")
    fdga = FiniteDga(
        complex_from_labels(field, window, basis, lambda l: diff.get(l, {}).items()),
        lambda a, b: mult_table.get((a, b), {}), unit, aug, complete, name=name)
    fdga.index  # the labels come from outside: a repeat is refused now
    return fdga


# ---------------------------------------------------------------------------
# builders


def base_field_algebra(field):
    """k itself: one basis label in degree 0."""
    return DgAlgebraSpec(
        field, "k",
        basis=lambda d: ("1",) if d == 0 else (),
        degree=lambda l: 0,
        diff=lambda l: {},
        mult=lambda a, b: {"1": field.one},
        unit="1",
        aug=lambda l: field.one,
        min_degree=0, max_degree=0)


def square_zero(field, n):
    """k + k[n]: unit plus one square-zero generator e in degree -n."""
    if not isinstance(n, int) or n < 0:
        raise RefusalError(f"square_zero needs an integer n >= 0, got {n!r}")
    one, zero = field.one, field.zero

    def mult(a, b):
        if a == "1":
            return {b: one}
        if b == "1":
            return {a: one}
        return {}

    def basis(d):
        if n == 0:
            return ("1", "e") if d == 0 else ()
        if d == 0:
            return ("1",)
        return ("e",) if d == -n else ()

    return DgAlgebraSpec(
        field, f"square_zero({n})",
        basis=basis,
        degree=lambda l: 0 if l == "1" else -n,
        diff=lambda l: {},
        mult=mult,
        unit="1",
        aug=lambda l: one if l == "1" else zero,
        min_degree=-n, max_degree=0)


def truncated_polynomial(field, m, d):
    """k[x]/x^m with |x| = d (d <= 0; odd d only in characteristic 2, or d = 0)."""
    if not isinstance(m, int) or m < 2:
        raise RefusalError(f"truncated_polynomial needs m >= 2, got {m!r}")
    if not isinstance(d, int) or d > 0:
        raise RefusalError(f"generator degree must be <= 0, got {d!r}")
    if d % 2 != 0 and field.characteristic != 2:
        raise RefusalError(
            f"odd generator degree {d} needs characteristic 2 (else x^2 = 0 is forced)")
    one, zero = field.one, field.zero
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, m)]
    power = {l: i for i, l in enumerate(labels)}

    def basis(dd):
        if d == 0:
            return tuple(labels) if dd == 0 else ()
        return tuple(l for l in labels if power[l] * d == dd)

    def mult(a, b):
        i = power[a] + power[b]
        return {labels[i]: one} if i < m else {}

    return DgAlgebraSpec(
        field, f"truncated_polynomial({m},{d})",
        basis=basis,
        degree=lambda l: power[l] * d,
        diff=lambda l: {},
        mult=mult,
        unit="1",
        aug=lambda l: one if l == "1" else zero,
        min_degree=d * (m - 1), max_degree=0)


def free_assoc(field, gens):
    """Tensor algebra on generators with zero differential.

    gens is a list of (name, degree) pairs.  Degree-0 generators are rejected
    (degreewise bases would be infinite) and so are mixed-sign degree sets,
    for the same reason.  Words are labels like "u*v*u", with "1" the empty
    word.
    """
    gens = [(str(n), int(d)) for n, d in gens]
    if not gens:
        raise RefusalError("free_assoc needs at least one generator")
    names = [n for n, _ in gens]
    if len(set(names)) != len(names):
        raise RefusalError(f"duplicate generator names in {names}")
    for n, d in gens:
        if not n or "*" in n or any(c.isspace() for c in n):
            raise RefusalError(f"bad generator name {n!r}")
        if d == 0:
            raise RefusalError(
                f"generator {n!r} in degree 0 would make every degreewise basis infinite")
    signs = {1 if d > 0 else -1 for _, d in gens}
    if len(signs) > 1:
        raise RefusalError(
            "mixed-sign generator degrees would make every degreewise basis infinite")
    sign = signs.pop()
    degree_of = dict(gens)
    one, zero = field.one, field.zero

    # the words of each degree from 0 out, with no gap
    memo = {0: ("1",)}

    def words(d):
        """The words of degree d, by first generator, then by tail.  A tail
        lies between 0 and d, so the missing degrees are made in order from
        the first one memo lacks, and nothing recurses once per degree."""
        if d and (d > 0) != (sign > 0):
            return ()
        for e in range(sign * len(memo), d + sign, sign):
            memo[e] = tuple(n if tail == "1" else f"{n}*{tail}"
                            for n, dg in gens for tail in memo.get(e - dg, ()))
        return memo[d]

    def degree(label):
        if label == "1":
            return 0
        return sum(degree_of[p] for p in label.split("*"))

    def mult(a, b):
        if a == "1":
            return {b: one}
        if b == "1":
            return {a: one}
        return {f"{a}*{b}": one}

    spec = DgAlgebraSpec(
        field, "free<" + ",".join(f"{n}:{d}" for n, d in gens) + ">",
        basis=words,
        degree=degree,
        diff=lambda l: {},
        mult=mult,
        unit="1",
        aug=lambda l: one if l == "1" else zero,
        min_degree=0 if sign > 0 else None,
        max_degree=0 if sign < 0 else None)
    spec.free_gens = tuple(gens)
    return spec


def opposite(spec):
    """The opposite algebra: a *op b = (-1)^{|a||b|} b a."""
    field = spec.field
    minus = field.neg(field.one)

    def mult(a, b):
        raw = spec.mult(b, a)
        if spec.degree(a) % 2 != 0 and spec.degree(b) % 2 != 0:
            return {m: field.mul(minus, c) for m, c in raw.items()}
        return dict(raw)

    return DgAlgebraSpec(
        field, spec.name + "^op",
        basis=spec.basis, degree=spec.degree, diff=spec.diff, mult=mult,
        unit=spec.unit, aug=spec.aug,
        min_degree=spec.min_degree, max_degree=spec.max_degree)


def tensor_algebra(a, b, name=None):
    """Tensor product of two complete slices, with the Koszul sign
    (x ox t)(x' ox t') = (-1)^{|t||x'|} xx' ox tt'.  Labels are (a, b) pairs.
    Completeness of both factors is required so every stored product is
    honest."""
    if not (a.complete and b.complete):
        raise RefusalError("tensor_algebra needs complete factors")
    if a.field != b.field:
        raise StructuralError("tensor factors over different fields")
    field = a.field
    window = Window(a.window.lo + b.window.lo, a.window.hi + b.window.hi)
    basis = {}
    for d1, ls1 in a.basis.items():
        for d2, ls2 in b.basis.items():
            basis.setdefault(d1 + d2, []).extend((x, y) for x in ls1 for y in ls2)

    def boundary(label):
        x, y = label
        sgn = field.one if a.degree(x) % 2 == 0 else field.neg(field.one)
        return ([((m, y), c) for m, c in a.diff(x).items()]
                + [((x, m), field.mul(sgn, c)) for m, c in b.diff(y).items()])

    def mult_fn(p, q):
        x, y = p
        u, v = q
        sgn = (field.neg(field.one)
               if b.degree(y) % 2 != 0 and a.degree(u) % 2 != 0 else field.one)
        return _bilinear(field, lambda m, n: {(m, n): sgn}, a.mult(x, u), b.mult(y, v))

    aug = {}
    for x in a.labels(0):
        for y in b.labels(0):
            c = field.mul(a.aug_of(x), b.aug_of(y))
            if not field.is_zero(c):
                aug[(x, y)] = c

    return FiniteDga(complex_from_labels(field, window, basis, boundary),
                     mult_fn, (a.unit, b.unit), aug,
                     complete=True, name=name or f"{a.name}(x){b.name}")


# ---------------------------------------------------------------------------
# cohomology with products


def full_cohomology(fdga, representatives=True):
    """Cohomology of a complete slice on every degree of its window.

    Padding the window by one empty degree on each side makes all original
    degrees interior, which is honest precisely because the slice is
    complete."""
    if not fdga.complete:
        raise RefusalError("full_cohomology needs a complete slice")
    padded = fdga.window.padded()
    slice_ = CochainComplexSlice(fdga.field, padded, fdga.basis, fdga.complex().diff)
    return slice_.cohomology(representatives=representatives)


def cohomology_ring(fdga, full=False, product=None):
    """Cohomology of the underlying complex together with structure constants
    of the induced ring on reliable degrees.

    The returned report's `ring` maps ((d1,i1),(d2,i2)) to the lincomb, over
    class indices (d3,i3), of the product of the chosen representatives.
    Pairs whose product degree is not reliable are listed in ring_skipped.
    product(reps, d1, i1, d2, i2) gives reps[d1][i1] * reps[d2][i2] as the
    ints (w, s) of the vector w / s: by default taken on labels (mult_lc),
    from the Koszul dual on index vectors (dual.dual_cohomology_ring).
    Each is read off by the report's `int_coords`, so no differential is
    eliminated again here.  The constants depend on the representative
    choice; only dimensions and structural facts derived from them (powers
    spanning, nilpotence) are meaningful across implementations.
    """
    base = full_cohomology(fdga) if full else fdga.cohomology()
    reps = base.representatives
    if product is None:
        def product(reps, d1, i1, d2, i2):
            prod = fdga.mult_lc(fdga.lincomb(reps[d1][i1], d1), fdga.lincomb(reps[d2][i2], d2))
            scale, (w,) = _integral_columns(fdga.field, [fdga.vector(prod, d1 + d2)])
            return w, scale
    reliable = sorted(base.dims)
    class_degrees = [d for d in reliable if base.dims[d] > 0]

    ring = {}
    skipped = []
    for d1 in class_degrees:
        for d2 in class_degrees:
            d3 = d1 + d2
            if d3 not in base.dims:
                skipped.append((d1, d2, d3))
                continue
            for i1 in range(len(reps[d1])):
                for i2 in range(len(reps[d2])):
                    coords = base.int_coords(d3, *product(reps, d1, i1, d2, i2))
                    ring[((d1, i1), (d2, i2))] = {(d3, i3): c for i3, c in coords.items()}
    base.ring, base.ring_skipped = ring, tuple(skipped)
    return base


def connective_cover(fdga):
    """The subalgebra (degrees < 0 unchanged, kernel of d in degree 0).

    For a complete slice whose cohomology vanishes in positive degrees this
    inclusion is a quasi-isomorphism, which is exactly when the cover is a
    legitimate stand-in for resolution and bar purposes.  Refused otherwise.
    """
    if not fdga.complete:
        raise RefusalError("connective cover needs a complete slice")
    field = fdga.field
    h = full_cohomology(fdga, representatives=False)
    for d, n in h.dims.items():
        if d > 0 and n:
            raise RefusalError(
                f"cohomology is nonzero in positive degree {d}; no connective cover")
    if not any(d > 0 for d in fdga.basis):
        return fdga
    if 0 not in fdga.window:
        raise RefusalError("window must contain degree 0")

    d0 = fdga.complex().d_at(0)
    unit_vec = fdga.vector({fdga.unit: field.one}, 0)
    if d0.apply(unit_vec):
        raise StructuralError("unit is not a cocycle")
    spans = {d: [{i: field.one} for i in range(len(ls))]
             for d, ls in fdga.basis.items() if d < 0}
    spans[0] = d0.nullspace_basis()

    def mult(v1, d1, v2, d2):
        prod = fdga.mult_lc(fdga.lincomb(v1, d1), fdga.lincomb(v2, d2))
        return fdga.vector(prod, d1 + d2)

    # the cover's top degree is 0, so its boundary only meets degrees below 0
    cover, _ = _subalgebra(
        field, Window(min(fdga.window.lo, 0), 0), unit_vec, spans,
        fdga.aug_of_vector, lambda v, d: fdga.complex().d_at(d).apply(v), mult,
        lambda d, i: fdga.labels(d)[i] if d < 0 else f"c{i}",
        f"{fdga.name}|cover")
    return cover


def _subalgebra(field, window, unit, spans, aug, diff, mult, label, name):
    """The complete sub-dg-algebra of an ambient algebra that the vectors
    spans[d] span in each degree d of window, and express(vec, d), the
    coordinates of an ambient vector in its basis.

    Vectors are dicts over the ambient's degree-d basis indices: unit is
    the ambient unit, aug(vec) the augmentation of a degree-0 vector,
    diff(vec, d) and mult(v1, d1, v2, d2) the ambient structure.  The
    degree-0 basis is the unit, labeled "1", then each spanning vector v
    less aug(v) times the unit, so "1" alone augments to 1; in other
    degrees it is the spanning vectors.  A vector is kept when it extends
    the span so far, and is labeled label(d, i), i its index in the degree's
    basis.  A label that is already taken is refused before any assembly.
    """
    trackers, vectors, basis = {}, {}, {}
    for d in window.degrees():
        tracker = trackers[d] = SpanTracker(field, track=True)
        candidates = spans.get(d, ())
        if d == 0:
            candidates = [unit] + [vec_add_into(field, dict(v), unit, field.neg(aug(v)))
                                   for v in candidates]
        chosen = []
        for v in candidates:
            lbl = label(d, len(chosen)) if d or chosen else "1"
            if tracker.insert(v, tag=lbl):
                if lbl in vectors:
                    raise StructuralError(f"{name}: degree-{d} label {lbl!r} is already taken")
                chosen.append(lbl)
                vectors[lbl] = (d, v)
        if chosen:
            basis[d] = chosen

    def express(vec, d):
        if not vec:
            return {}
        residual, combo = trackers[d].reduce(vec)
        if residual:
            raise StructuralError(f"{name}: a degree-{d} vector is outside the subalgebra")
        return dict(combo)

    def boundary(lbl):
        d, v = vectors[lbl]
        return express(diff(v, d), d + 1).items()

    def product(l1, l2):
        (d1, v1), (d2, v2) = vectors[l1], vectors[l2]
        return express(mult(v1, d1, v2, d2), d1 + d2)

    sub = FiniteDga(complex_from_labels(field, window, basis, boundary), product,
                    "1", {"1": field.one}, complete=True, name=name)
    return sub, express


# ---------------------------------------------------------------------------
# maps of dg algebras


class DgaMap:
    """A degree-0 map of window slices given on basis labels; labels missing
    from images are sent to zero."""

    def __init__(self, source, target, images, name=""):
        self.source = source
        self.target = target
        self.images = {l: dict(lc) for l, lc in images.items() if lc}
        self.name = name

    def apply(self, lc):
        return _linear(self.target.field, lambda l: self.images.get(l, {}), lc)

    def validate_map(self, check_augmentation=True):
        # check_augmentation=False validates a map of dg algebras that is
        # not required to respect the chosen augmentations (the far endpoint
        # evaluation of a path object is the standing example)
        field = self.target.field
        src, tgt = self.source, self.target
        report = ValidationReport(self.name or "dga map", [
            "degree", "chain", "multiplicative", "unit"] + ["augmentation"] * check_augmentation)
        for l, lc in self.images.items():
            d = src.degree(l)
            for m in lc:
                if m not in tgt.index or tgt.index[m][0] != d:
                    report.fail("degree", (l, m))

        all_labels = [(d, l) for d, ls in sorted(src.basis.items()) for l in ls]

        for d, l in all_labels:
            if d + 1 not in src.window or d + 1 not in tgt.window:
                continue
            lhs = self.apply(src.diff(l))
            rhs = tgt.diff_lc(self.apply({l: field.one}))
            if not lc_equal(field, lhs, rhs):
                report.fail("chain", (l,))

        for d1, a in all_labels:
            for d2, b in all_labels:
                if d1 + d2 not in src.window or d1 + d2 not in tgt.window:
                    continue
                lhs = self.apply(src.mult(a, b))
                rhs = tgt.mult_lc(self.apply({a: field.one}), self.apply({b: field.one}))
                if not lc_equal(field, lhs, rhs):
                    report.fail("multiplicative", (a, b))

        if 0 in src.window and 0 in tgt.window and src.unit in src.index:
            if not lc_equal(field, self.apply({src.unit: field.one}),
                             {tgt.unit: field.one}):
                report.fail("unit", (src.unit,))

        if check_augmentation:
            for a in src.labels(0):
                got = field.zero
                for m, c in self.apply({a: field.one}).items():
                    got = field.add(got, field.mul(c, tgt.aug_of(m)))
                if not field.is_zero(field.sub(got, src.aug_of(a))):
                    report.fail("augmentation", (a,))

        return report

    def __repr__(self):
        return f"DgaMap({self.source.name} -> {self.target.name})"
