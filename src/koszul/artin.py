"""Artin predicate, path objects, homotopy fiber products, towers.

The path object is Z tensored with the three-dimensional interval algebra
(cellular cochains on the 1-simplex, presented on a unit-adapted basis).
Both evaluations are degreewise surjective dg algebra maps, so the strict
limit of X -> Z <- Y through the path object computes the homotopy fiber
product; that strict limit is itself a finite dg algebra here, which keeps
every later computation (cohomology, duals, resolutions) inside the same
machinery.  It is the sub-dg-algebra of X x path(Z) x Y spanned by the
kernel of the constraints, built by the same constructor as the connective
cover (dga._subalgebra), on a unit-first, augmentation-adapted basis.

The square check solves two linear systems, the fiber product's
constraints and the path lift's conditions.  Each is assembled as columns,
one per unknown, whose entries are keyed by the condition their row states;
_kernel numbers the rows as it meets them and returns the kernel basis.
"""

from functools import cache

from .exactla import (
    Window, SpanTracker, SparseMatrix, RefusalError, StructuralError,
    CochainComplexSlice, complex_from_labels, vec_add_into,
)
from .dga import (
    DgaMap, _subalgebra, base_field_algebra, square_zero,
    algebra_slice, finite_dga_from_tables, tensor_algebra, full_cohomology,
    lc_equal, _augmentation_ideal, _power_dims, _linear,
)


def _kernel(field, cols):
    """Kernel basis of the matrix whose columns are cols, each a dict from
    row keys (the condition a row states) to scalars; the rows are numbered
    as first met, which leaves the kernel basis unchanged."""
    rows = {}
    entries = {(rows.setdefault(key, len(rows)), j): c
               for j, col in enumerate(cols) for key, c in col.items()}
    return SparseMatrix(field, len(rows), len(cols), entries).nullspace_basis()


def k_slice(field):
    """The base field as a complete one-dimensional slice."""
    return algebra_slice(base_field_algebra(field), Window(0, 0))


def interval_algebra(field):
    """Cochains on the 1-simplex, on the unit-adapted basis {1, e, h}.

    Here 1 = e0 + e1 and e = e1 in terms of the two vertex idempotents, so
    e*e = e, h*e = h, e*h = 0, d(e) = h.  Evaluation at the two endpoints:
    ev0 kills e and h; ev1 sends e to 1 and kills h.  The unit inclusion
    k -> interval is a quasi-isomorphism.
    """
    one = field.one
    mult = {
        ("1", "1"): {"1": one}, ("1", "e"): {"e": one}, ("e", "1"): {"e": one},
        ("1", "h"): {"h": one}, ("h", "1"): {"h": one},
        ("e", "e"): {"e": one}, ("e", "h"): {}, ("h", "e"): {"h": one},
        ("h", "h"): {},
    }
    return finite_dga_from_tables(
        field, Window(0, 1), {0: ("1", "e"), 1: ("h",)},
        diff={"e": {"h": one}}, mult_table=mult, unit="1",
        aug={"1": one, "e": field.zero}, complete=True, name="interval")


def unit_inclusion(k, target):
    """The unique unital map from the base-field slice."""
    return DgaMap(k, target, {"1": {target.unit: k.field.one}},
                  name=f"k->{target.name}")


def augmentation_map(fdga, k):
    """The augmentation as a map of slices."""
    images = {}
    for l in fdga.labels(0):
        c = fdga.aug_of(l)
        if not fdga.field.is_zero(c):
            images[l] = {"1": c}
    return DgaMap(fdga, k, images, name=f"{fdga.name}->k")


class PathObject:
    """Z tensor interval, with the two evaluations and the diagonal."""

    def __init__(self, algebra, ev0, ev1, diagonal):
        self.algebra = algebra
        self.ev0 = ev0
        self.ev1 = ev1
        self.diagonal = diagonal


def path_object(z):
    """The path object of a complete slice, with evaluation maps."""
    field = z.field
    interval = interval_algebra(field)
    p = tensor_algebra(z, interval, name=f"path({z.name})")
    one = field.one
    ev0_images = {}
    ev1_images = {}
    diag_images = {}
    for d, labels in p.basis.items():
        for (zl, il) in labels:
            if il == "1":
                ev0_images[(zl, il)] = {zl: one}
                ev1_images[(zl, il)] = {zl: one}
            elif il == "e":
                ev1_images[(zl, il)] = {zl: one}
    for d, labels in z.basis.items():
        for zl in labels:
            diag_images[zl] = {(zl, "1"): one}
    return PathObject(
        p,
        DgaMap(p, z, ev0_images, name="ev0"),
        DgaMap(p, z, ev1_images, name="ev1"),
        DgaMap(z, p, diag_images, name="diag"))


def homotopy_fiber_product(f, g):
    """The fiber product of f: X -> Z and g: Y -> Z through the path object.

    Computes, degree by degree, the kernel of (x,p,y) -> (ev0(p) - f(x),
    ev1(p) - g(y)) inside X x path(Z) x Y, and takes the sub-dg-algebra of
    the componentwise structure that the kernels span (dga._subalgebra).
    The result is a complete validated-by-use FiniteDga with a unit-first,
    augmentation-adapted basis; fp.fp_express(x_lc, p_lc, y_lc, d) rewrites
    any triple satisfying the constraints in the chosen basis.
    """
    x, y = f.source, g.source
    if g.target is not f.target:
        raise RefusalError("the two legs must share their target slice")
    z = f.target
    for s in (x, y, z):
        if not s.complete:
            raise RefusalError(f"fiber product needs complete slices ({s.name})")
    for m in (f, g):
        report = m.validate_map()
        if not report:
            raise RefusalError(
                f"leg {m.name or m!r} is not a dg algebra map: {report.witnesses}")

    field = z.field
    path = path_object(z)
    p = path.algebra
    hull = Window(min(x.window.lo, p.window.lo, y.window.lo),
                  max(x.window.hi, p.window.hi, y.window.hi))

    amb_labels = {}
    amb_index = {}
    for d in hull.degrees():
        labels = ([("x", l) for l in x.labels(d)]
                  + [("p", l) for l in p.labels(d)]
                  + [("y", l) for l in y.labels(d)])
        amb_labels[d] = labels
        amb_index[d] = {l: i for i, l in enumerate(labels)}

    # an ambient label's column holds the z-coefficients m of ev0(p) - f(x)
    # on the rows (0, m) and of ev1(p) - g(y) on the rows (1, m)
    one, minus = field.one, field.neg(field.one)
    legs = {"x": ((0, f, minus),), "p": ((0, path.ev0, one), (1, path.ev1, one)),
            "y": ((1, g, minus),)}
    columns = {d: [{(row, m): field.mul(sign, c) for row, leg, sign in legs[part]
                    for m, c in leg.apply({l: one}).items()}
                   for part, l in amb_labels[d]]
               for d in hull.degrees() if amb_labels[d]}

    def split(vec, d):
        xs, ps, ys = {}, {}, {}
        labels = amb_labels[d]
        for i, c in vec.items():
            part, l = labels[i]
            (xs if part == "x" else ps if part == "p" else ys)[l] = c
        return xs, ps, ys

    def join(xs, ps, ys, d):
        # a degree outside the hull has no ambient labels, so only the
        # empty triple lives there, and it joins to the zero vector
        idx = amb_index.get(d, {})
        out = {}
        for l, c in xs.items():
            out[idx[("x", l)]] = c
        for l, c in ps.items():
            out[idx[("p", l)]] = c
        for l, c in ys.items():
            out[idx[("y", l)]] = c
        return out

    def diff(vec, d):
        xs, ps, ys = split(vec, d)
        return join(x.diff_lc(xs), p.diff_lc(ps), y.diff_lc(ys), d + 1)

    def mult(v1, d1, v2, d2):
        (x1, p1, y1), (x2, p2, y2) = split(v1, d1), split(v2, d2)
        return join(x.mult_lc(x1, x2), p.mult_lc(p1, p2), y.mult_lc(y1, y2), d1 + d2)

    unit_vec = join({x.unit: one}, {p.unit: one}, {y.unit: one}, 0)
    if _linear(field, columns[0].__getitem__, unit_vec):
        raise StructuralError("the unit triple violates the constraints")
    kernels = {d: _kernel(field, cols) for d, cols in columns.items()}

    fp, express = _subalgebra(
        field, hull, unit_vec, kernels,
        lambda v: x.aug_of_vector(x.vector(split(v, 0)[0], 0)), diff, mult,
        lambda d, i: f"v({d},{i})",
        f"fp({x.name} -> {z.name} <- {y.name})")
    fp.fp_express = lambda xs, ps, ys, d: express(join(xs, ps, ys, d), d)
    return fp


# ---------------------------------------------------------------------------
# the Artin predicate


class ArtinReport:
    """Connectivity, finiteness and locality verdict for a complete slice."""

    def __init__(self, subject, connective, total_dimension, h0_local,
                 residue_is_k, verdict):
        self.subject = subject
        self.connective = connective
        self.total_dimension = total_dimension
        self.h0_local = h0_local
        self.residue_is_k = residue_is_k
        self.verdict = verdict

    def __bool__(self):
        return self.verdict

    def __repr__(self):
        return (f"ArtinReport({self.subject}, connective={self.connective}, "
                f"total={self.total_dimension}, local={self.h0_local}, "
                f"residue_is_k={self.residue_is_k}, verdict={self.verdict})")


def _h0(fdga):
    """H^0 of a slice with representatives: the cohomology on degrees -1..1,
    whose only interior degree is 0.  Clearing leaves d_{-1}'s pivots as
    they are, so the representatives are the whole window's."""
    window, diff = Window(-1, 1), fdga.complex().diff
    basis = {d: fdga.labels(d) for d in window.degrees()}
    return CochainComplexSlice(fdga.field, window, basis,
                               {d: diff[d] for d in (-1, 0) if d in diff}).cohomology()


def is_artin(fdga):
    """Artin verdict: connective cohomology, finite total dimension, H^0
    local with residue field k.

    The predicate is about cohomology, so chain-level basis elements in
    positive degrees are fine as long as they leave no cohomology there
    (fiber products routinely carry a degree-1 path chain).  A complete
    slice decides all three conditions exactly.  An incomplete slice is
    admitted only when its window interior already disproves connectivity,
    which is sound since interior cohomology of a slice agrees with the
    full algebra; total_dimension then counts window classes only.  H^0 is
    local when its augmentation ideal is nilpotent (dga._power_dims); the
    product of two chosen classes is read off once, on first use.  Only
    degree 0 gets representatives (_h0); the dims are taken without.
    """
    field = fdga.field
    if fdga.complete:
        dims = full_cohomology(fdga, representatives=False).dims
    else:
        dims = fdga.cohomology(representatives=False).dims
        if not any(n and d > 0 for d, n in dims.items()):
            raise RefusalError(
                f"{fdga.name}: Artin predicate needs a complete slice unless "
                "the window already disproves connectivity")
    connective = all(n == 0 for d, n in dims.items() if d > 0)
    total = sum(dims.values())
    if 0 not in dims:
        return ArtinReport(fdga.name, connective, total, None, None, False)
    h = _h0(fdga)
    reps = h.representatives[0]

    n = len(reps)
    unit_coords = h.coords(0, fdga.vector({fdga.unit: field.one}, 0)) if n else {}
    residue_is_k = bool(unit_coords)

    @cache
    def class_product(i, j):
        prod = fdga.mult_lc(fdga.lincomb(reps[i], 0), fdga.lincomb(reps[j], 0))
        return h.coords(0, fdga.vector(prod, 0)) if prod else {}

    # aug is a cocycle functional, so it descends to classes
    ideal = _augmentation_ideal(field, unit_coords, [fdga.aug_of_vector(rep) for rep in reps])
    h0_local = _power_dims(field, ideal, ideal, class_product) is not None
    verdict = connective and h0_local and residue_is_k
    return ArtinReport(fdga.name, connective, total, h0_local,
                       residue_is_k, verdict)


# ---------------------------------------------------------------------------
# square verification


class SquareVerdict:
    """Outcome of verify_square; false verdicts carry the failing reason."""

    def __init__(self, ok, reason="", fiber_product=None, induced=None):
        self.ok = ok
        self.reason = reason
        self.fiber_product = fiber_product
        self.induced = induced

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"SquareVerdict(ok={self.ok}, reason={self.reason!r})"


def _h0_surjective(m):
    """Does a map of complete slices induce a surjection on H^0?"""
    field = m.target.field
    reps_src = _h0(m.source).representatives[0]
    h_tgt = _h0(m.target)
    tracker = SpanTracker(field)
    rank = 0
    for rep in reps_src:
        image = m.apply(m.source.lincomb(rep, 0))
        cv = h_tgt.coords(0, m.target.vector(image, 0)) if image else {}
        if cv and tracker.insert(cv):
            rank += 1
    return rank == len(h_tgt.representatives[0])


def _path_lift_space(f, p):
    """All ways to route A through the path object compatibly with the legs.

    A lift of a strictly commuting square sends a to pf(a) tensor 1 plus
    sigma(a) tensor h for a degree -1 map sigma: A -> Z; being a dg algebra
    map works out to the linear conditions sigma(1) = 0, sigma d = d sigma,
    and sigma(ab) = pf(a) sigma(b) + (-1)^{|b|} sigma(a) pf(b).  The
    unknowns are the coefficients (a, m) of sigma, m in Z^{|a|-1}, by
    degree, then A-label, then Z-label; the rows are keyed by the
    Z-coefficient m of the condition they state, ("unit", m), ("d", a, m)
    and ("m", a, b, m), and solved by _kernel.  Returns the solution space
    as a list of {a-label: Z-lincomb} dictionaries.
    """
    a, z = f.source, p.target
    field = a.field
    one, minus = field.one, field.neg(field.one)
    pf = {l: p.apply(f.apply({l: one})) for labels in a.basis.values() for l in labels}
    unknowns = [(l, m) for d in sorted(a.basis) for l in a.basis[d] for m in z.labels(d - 1)]
    column = {u: j for j, u in enumerate(unknowns)}
    cols = [{} for _ in unknowns]

    def add(key, l, coeff, image=lambda m: {m: one}):
        # coeff times image(m), on the rows key + (m2,), in each unknown (l, m)
        for m in z.labels(a.degree(l) - 1):
            vec_add_into(field, cols[column[l, m]],
                         {key + (m2,): c for m2, c in image(m).items()}, coeff)

    add(("unit",), a.unit, one)
    for labels in a.basis.values():
        for l in labels:
            for l2, c in a.diff(l).items():
                add(("d", l), l2, c)
            add(("d", l), l, minus, lambda m: z.diff_lc({m: one}))
    for d1, labels1 in a.basis.items():
        for d2, labels2 in a.basis.items():
            if not z.labels(d1 + d2 - 1):
                continue
            sign = minus if d2 % 2 else one
            for l1 in labels1:
                for l2 in labels2:
                    key = ("m", l1, l2)
                    for l3, c in a.mult(l1, l2).items():
                        add(key, l3, c)
                    add(key, l2, minus, lambda m: z.mult_lc(pf[l1], {m: one}))
                    add(key, l1, field.neg(sign), lambda m: z.mult_lc({m: one}, pf[l2]))

    solutions = []
    for vec in _kernel(field, cols):
        sigma = {}
        for j, c in sorted(vec.items()):
            l, m = unknowns[j]
            sigma.setdefault(l, {})[m] = c
        solutions.append(sigma)
    return solutions


def _induced_map(f, g, p, fp, sigma):
    """The map A -> fiber product determined by the legs and a path lift."""
    a = f.source
    field = a.field
    images = {}
    for d, labels in a.basis.items():
        for l in labels:
            x_lc = f.apply({l: field.one})
            y_lc = g.apply({l: field.one})
            p_lc = {(m, "1"): c
                    for m, c in p.apply(x_lc).items()}
            for m, c in sigma.get(l, {}).items():
                p_lc[(m, "h")] = c
            image = fp.fp_express(x_lc, p_lc, y_lc, d)
            if image:
                images[l] = image
    return DgaMap(a, fp, images, name=f"{a.name}->fp")


def _cone_is_acyclic(a, fp, induced, window=None):
    """Acyclicity of the mapping cone, the quasi-isomorphism certificate."""
    field = a.field
    hull = Window(min(a.window.lo - 1, fp.window.lo),
                  max(a.window.hi - 1, fp.window.hi)).padded()
    basis = {d: [("a", l) for l in a.labels(d + 1)] + [("f", l) for l in fp.labels(d)]
             for d in hull.degrees()}

    def boundary(label):
        part, l = label
        if part == "f":
            return [(("f", m), c) for m, c in fp.diff(l).items()]
        return ([(("a", m), field.neg(c)) for m, c in a.diff(l).items()]
                + [(("f", m), c) for m, c in induced.apply({l: field.one}).items()])

    h = complex_from_labels(field, hull, basis, boundary).cohomology(representatives=False)
    for d, n in sorted(h.dims.items()):
        if n and (window is None or d in window):
            return d
    return None


def verify_square(f, g, p, q, window=None):
    """Check that f: A -> X, g: A -> Y present A as the homotopy fiber
    product of p: X -> Z and q: Y -> Z.

    True requires: all four maps validate, the square commutes strictly,
    both legs are surjective on H^0, and some map A -> fiber product
    induced by the legs and a commuting homotopy is a quasi-isomorphism.
    The homotopies form a finite-dimensional affine space here (the path
    component is forced except for its h-coefficient), so the search tries
    the trivial lift, then a spanning family of the lift space.  A true
    verdict always carries an explicit quasi-isomorphism witness; a false
    verdict carries a reason and, since the search is a finite sample of
    the lift space, is a sound refusal rather than a disproof.
    """
    a = f.source
    if g.source is not a:
        return SquareVerdict(False, "the two inner legs have different sources")
    if p.source is not f.target or q.source is not g.target:
        return SquareVerdict(False, "legs do not compose with the square sides")
    if p.target is not q.target:
        return SquareVerdict(False, "the two outer legs have different targets")
    for s, tag in ((a, "corner"), (f.target, "X"), (g.target, "Y"),
                   (p.target, "Z")):
        if not s.complete:
            return SquareVerdict(False, f"{tag} slice is not complete")
    for m, tag in ((f, "A->X"), (g, "A->Y"), (p, "X->Z"), (q, "Y->Z")):
        report = m.validate_map()
        if not report:
            return SquareVerdict(
                False, f"{tag} is not a dg algebra map: {report.witnesses}")

    field = a.field
    for d, labels in a.basis.items():
        for l in labels:
            lhs = p.apply(f.apply({l: field.one}))
            rhs = q.apply(g.apply({l: field.one}))
            if not lc_equal(field, lhs, rhs):
                return SquareVerdict(False, f"square does not commute at {l!r}")

    if not _h0_surjective(p):
        return SquareVerdict(False, "leg X -> Z is not surjective on H^0")
    if not _h0_surjective(q):
        return SquareVerdict(False, "leg Y -> Z is not surjective on H^0")

    fp = homotopy_fiber_product(p, q)

    h_a = full_cohomology(a, representatives=False)
    h_fp = full_cohomology(fp, representatives=False)
    dims_a = {d: n for d, n in h_a.dims.items() if n}
    dims_fp = {d: n for d, n in h_fp.dims.items() if n}
    if window is not None:
        dims_a = {d: n for d, n in dims_a.items() if d in window}
        dims_fp = {d: n for d, n in dims_fp.items() if d in window}
    if dims_a != dims_fp:
        bad = sorted(set(dims_a) ^ set(dims_fp)
                     | {d for d in dims_a if dims_fp.get(d) != dims_a[d]})
        return SquareVerdict(
            False, f"cohomology dims mismatch: corner has {dims_a}, fiber "
            f"product has {dims_fp} (first disagreement at degree {bad[0]})",
            fp)

    basis_lifts = _path_lift_space(f, p)
    candidates = [{}]
    candidates.extend(basis_lifts)
    if len(basis_lifts) > 1:
        for weights in (lambda i: 1, lambda i: i + 1):
            combo = {}
            for i, sigma in enumerate(basis_lifts):
                w = field.of_int(weights(i))
                for l, lc in sigma.items():
                    acc = combo.setdefault(l, {})
                    vec_add_into(field, acc, lc, w)
            candidates.append({l: lc for l, lc in combo.items() if lc})
    for sigma in candidates:
        induced = _induced_map(f, g, p, fp, sigma)
        induced.validate_map().raise_if_failed()
        if _cone_is_acyclic(a, fp, induced, window) is None:
            return SquareVerdict(True, "", fp, induced)
    return SquareVerdict(
        False, "no sampled path lift induces a quasi-isomorphism onto the "
        "fiber product", fp)


def small_extension_square(a, s):
    """The canonical maps exhibiting a as k x_{k + k[s]} k.

    Legs: both augmentations out of a; sides: both unit sections of the
    degree -s square-zero algebra."""
    field = a.field
    k = k_slice(field)
    z = algebra_slice(square_zero(field, s), Window(-s, 0))
    return (augmentation_map(a, k), augmentation_map(a, k),
            unit_inclusion(k, z), unit_inclusion(k, z))


# ---------------------------------------------------------------------------
# radical filtration and composition series


class CompositionSeries:
    """Radical filtration of a module over a degree-0 local slice, refined
    to a full flag with residue-field factors."""

    def __init__(self, subject, radical_dims, length, factors):
        self.subject = subject
        self.radical_dims = radical_dims
        self.length = length
        self.factors = factors

    def __repr__(self):
        return (f"CompositionSeries({self.subject}, dims={self.radical_dims}, "
                f"length={self.length})")


def radical_filtration(r, module=None):
    """M >= IM >= I^2 M >= ... >= 0 for I the augmentation ideal of a
    degree-0 complete slice, refined to a composition series.

    The input must be an ordinary finite algebra (one degree, no
    differential) with I nilpotent, which makes it local with residue k;
    every filtration quotient is then a trivial module, so any refinement
    has all factors k and the length is dim M.  module=None takes M = r;
    otherwise a degree-0 module spec over r's presentation works, and an
    action that leaves the module's degree-0 basis is a StructuralError.
    The layers are dga._power_dims of the _augmentation_ideal.
    """
    if not r.complete:
        raise RefusalError("radical filtration needs a complete slice")
    if any(d != 0 for d in r.basis):
        raise RefusalError(f"{r.name} is not concentrated in degree 0")
    field = r.field
    r_labels = r.labels(0)

    def r_product(i, j):
        return r.vector(r.mult(r_labels[i], r_labels[j]), 0)

    # I = ker(aug), nilpotent required
    ideal = _augmentation_ideal(field, r.vector({r.unit: field.one}, 0),
                                [r.aug_of(l) for l in r_labels])
    if _power_dims(field, ideal, ideal, r_product) is None:
        raise RefusalError(
            f"{r.name}: augmentation ideal is not nilpotent; the residue "
            "field does not generate")

    if module is None:
        m_dim, act = len(r_labels), r_product
    else:
        m_labels = module.basis(0)
        m_index = {l: i for i, l in enumerate(m_labels)}
        m_dim = len(m_labels)

        @cache
        def act(i, j):
            image = module.left_act(r_labels[i], m_labels[j])
            for ml in image:
                if ml not in m_index:
                    raise StructuralError(
                        f"{module.name}: {r_labels[i]!r} acting on {m_labels[j]!r} gives "
                        f"{ml!r}, outside the module's degree-0 basis")
            return {m_index[ml]: c for ml, c in image.items()}

    radical_dims = _power_dims(field, ideal, [{i: field.one} for i in range(m_dim)], act)
    if radical_dims is None:
        raise RefusalError(f"{r.name}: radical filtration does not terminate")
    return CompositionSeries(r.name, radical_dims, m_dim, ["k"] * m_dim)


# ---------------------------------------------------------------------------
# towers


class TowerStep:
    """One stage A -> B realized as B x_{k + k[s]} k via an attaching map."""

    def __init__(self, tower_map, s, attach):
        if s < 1:
            raise RefusalError("attaching datum must have s >= 1")
        self.tower_map = tower_map
        self.s = s
        self.attach = attach


class TowerSpec:
    """A chain of algebra maps ending at k, with per-step attaching data."""

    def __init__(self, steps):
        if not steps:
            raise RefusalError("a tower needs at least one step")
        for first, second in zip(steps, steps[1:]):
            if first.tower_map.target is not second.tower_map.source:
                raise RefusalError("tower maps do not compose")
        self.steps = list(steps)


class TowerVerdict:
    def __init__(self, ok, step_verdicts, reason=""):
        self.ok = ok
        self.step_verdicts = step_verdicts
        self.reason = reason

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"TowerVerdict(ok={self.ok}, reason={self.reason!r})"


def verify_tower(tower):
    """Check every declared square of a tower and that it ends at k."""
    last = tower.steps[-1].tower_map.target
    if last.total_dimension() != 1 or last.dim(0) != 1:
        return TowerVerdict(False, [], "tower does not end at the base field")
    verdicts = []
    for step in tower.steps:
        a = step.tower_map.source
        k = k_slice(a.field)
        f = step.tower_map
        g = augmentation_map(a, k)
        q = unit_inclusion(k, step.attach.target)
        v = verify_square(f, g, step.attach, q)
        verdicts.append(v)
        if not v:
            return TowerVerdict(False, verdicts,
                                f"step {len(verdicts) - 1}: {v.reason}")
    return TowerVerdict(True, verdicts)
