"""Dg modules over algebra specs, and the Koszul complexes.

Module specs are spec-level objects: basis enumeration per degree plus
honest (untruncated) differential and action lincombs.  Windows only enter
when materializing a complex slice.  Sides: a "left" module carries
left_act(a, m), a "right" module right_act(m, b), and a "bi" module both,
with the mixed associativity (a.m).b = a.(m.b) holding on the nose.
"""

from .exactla import SpanTracker, RefusalError, StructuralError, complex_from_labels
from .dga import (
    ValidationReport, free_assoc, square_zero, lc_equal,
    _linear, _check_leibniz, _check_associative,
)
from .bar import two_sided_bar, derived_tensor_dims  # noqa: F401  (re-exported)


class DgModuleSpec:
    """A dg module presented degreewise over one or two algebra specs."""

    def __init__(self, field, name, algebra, side, basis, degree, diff,
                 left_act=None, right_act=None, right_algebra=None,
                 min_degree=None, max_degree=None):
        if side not in ("left", "right", "bi"):
            raise StructuralError(f"side must be left/right/bi, got {side!r}")
        if side in ("left", "bi") and left_act is None:
            raise StructuralError("left module without a left action")
        if side in ("right", "bi") and right_act is None:
            raise StructuralError("right module without a right action")
        self.field = field
        self.name = name
        self.algebra = algebra
        self.right_algebra = right_algebra if right_algebra is not None else algebra
        self.side = side
        self._basis = basis
        self._degree = degree
        self._diff = diff
        self._left_act = left_act
        self._right_act = right_act
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

    def left_act(self, a, m):
        if self._left_act is None:
            raise StructuralError(f"{self.name} has no left action")
        return self._left_act(a, m)

    def right_act(self, m, b):
        if self._right_act is None:
            raise StructuralError(f"{self.name} has no right action")
        return self._right_act(m, b)

    def __repr__(self):
        return f"DgModuleSpec({self.name}, side={self.side})"


# ---------------------------------------------------------------------------
# builders


def trivial_module(spec, name=None):
    """k as a bimodule over spec, both actions through the augmentation."""
    field = spec.field

    def act_left(a, m):
        c = spec.aug(a)
        return {} if field.is_zero(c) else {m: c}

    def act_right(m, b):
        c = spec.aug(b)
        return {} if field.is_zero(c) else {m: c}

    return DgModuleSpec(
        field, name or "k", spec, "bi",
        basis=lambda d: ("[]",) if d == 0 else (),
        degree=lambda l: 0,
        diff=lambda l: {},
        left_act=act_left, right_act=act_right,
        min_degree=0, max_degree=0)


def zero_module(spec, name=None):
    return DgModuleSpec(
        spec.field, name or "0", spec, "bi",
        basis=lambda d: (),
        degree=lambda l: 0,
        diff=lambda l: {},
        left_act=lambda a, m: {}, right_act=lambda m, b: {},
        min_degree=0, max_degree=0)


def regular_module(spec, name=None):
    """spec as a bimodule over itself by multiplication."""
    return DgModuleSpec(
        spec.field, name or f"{spec.name}_reg", spec, "bi",
        basis=spec.basis, degree=spec.degree, diff=spec.diff,
        left_act=spec.mult, right_act=spec.mult,
        min_degree=spec.min_degree, max_degree=spec.max_degree)


def laurent_module(field, g, name=None):
    """k[t, 1/t] as a module over k[t] with |t| = g (g >= 2 even).

    Every degree divisible by g holds one basis label t^m, m in Z; t acts by
    shifting.  This is the standard witness that t acts invertibly on a
    module even though no augmented algebra can contain 1/t.
    """
    if not isinstance(g, int) or g < 2 or g % 2 != 0:
        raise RefusalError(f"laurent module needs an even degree g >= 2, got {g!r}")
    base = free_assoc(field, [("t", g)])
    one = field.one

    def label(m):
        if m == 0:
            return "1"
        if m == 1:
            return "t"
        return f"t^{m}"

    def power(l):
        if l == "1":
            return 0
        if l == "t":
            return 1
        return int(l[2:])

    def shift(word, l):
        j = 0 if word == "1" else word.count("*") + 1
        return {label(power(l) + j): one}

    mod = DgModuleSpec(
        field, name or f"k[t,1/t:{g}]", base, "bi",
        basis=lambda d: (label(d // g),) if d % g == 0 else (),
        degree=lambda l: power(l) * g,
        diff=lambda l: {},
        left_act=lambda a, m: shift(a, m),
        right_act=lambda m, b: shift(b, m))
    return mod


def koszul_complex(field, n, name=None):
    """The two-step Koszul bimodule for the degree -n square-zero algebra.

    Basis u^a and u^a z (a >= 0) with deg(u^a z) = a(n+1) and
    deg(u^a) = a(n+1) + n; the differential sends u^a to u^{a+1} z and kills
    the z part.  k<u> with |u| = n+1 acts freely on the left (with a sign
    (-1)^{n+1} per u on the non-z part), and z spans the right square-zero
    action, u^a -> (-1)^{(n+1)a} u^a z.  Cohomology is k, the class of z, in
    degree 0.
    """
    if not isinstance(n, int) or n < 0:
        raise RefusalError(f"koszul_complex needs n >= 0, got {n!r}")
    left = free_assoc(field, [("u", n + 1)])
    right = square_zero(field, n)
    one = field.one

    def label(a, b):
        stem = "1" if a == 0 else ("u" if a == 1 else f"u^{a}")
        if not b:
            return stem
        return "z" if a == 0 else stem + "z"

    def parse(l):
        b = 1 if l.endswith("z") else 0
        stem = l[:-1] if b else l
        if stem in ("", "1"):
            a = 0
        elif stem == "u":
            a = 1
        else:
            a = int(stem[2:])
        return a, b

    def basis(d):
        out = []
        if d >= 0 and d % (n + 1) == 0:
            out.append(label(d // (n + 1), 1))
        if d - n >= 0 and (d - n) % (n + 1) == 0:
            out.append(label((d - n) // (n + 1), 0))
        return tuple(out)

    def degree(l):
        a, b = parse(l)
        return a * (n + 1) + (0 if b else n)

    def diff(l):
        a, b = parse(l)
        return {} if b else {label(a + 1, 1): one}

    def left_act(x, m):
        j = 0 if x == "1" else x.count("*") + 1
        a, b = parse(m)
        if b:
            return {label(a + j, 1): one}
        c = one if ((n + 1) * j) % 2 == 0 else field.neg(one)
        return {label(a + j, 0): c}

    def right_act(m, y):
        if y == "1":
            return {m: one}
        a, b = parse(m)
        if b:
            return {}
        c = one if ((n + 1) * a) % 2 == 0 else field.neg(one)
        return {label(a, 1): c}

    mod = DgModuleSpec(
        field, name or f"Kos({n})", left, "bi",
        basis=basis, degree=degree, diff=diff,
        left_act=left_act, right_act=right_act, right_algebra=right,
        min_degree=0, max_degree=None)
    mod.kos_n = n
    return mod


# ---------------------------------------------------------------------------
# slices and validation


def module_slice(mod, window):
    """The underlying cochain complex of a module on a window (differential
    terms above the window are truncated, as for algebra slices)."""
    basis = {d: mod.basis(d) for d in window.degrees()}
    for d, labels in basis.items():
        for l in labels:
            if mod.degree(l) != d:
                raise StructuralError(
                    f"{mod.name}: basis({d}) lists {l!r} of degree {mod.degree(l)}")
    return complex_from_labels(mod.field, window, basis, lambda l: mod.diff(l).items())


def validate_module(mod, window):
    """Check the module axioms on all basis tuples visible in the window.

    Module data is honest (spec-level), so each identity is checked exactly;
    only the enumeration of elements is bounded by the window.  Leibniz and
    associativity, bimodule's (a.m).b = a.(m.b) included, are dga's
    _check_leibniz and _check_associative with the action for the product.
    Algebra elements are the outer loops and the module element the inner
    one, which decides the witness each check keeps.
    """
    field = mod.field
    left, right = mod.side in ("left", "bi"), mod.side in ("right", "bi")
    report = ValidationReport(mod.name, ["d_squared"]
                              + ["left_leibniz", "left_associative", "left_unit"] * left
                              + ["right_leibniz", "right_associative", "right_unit"] * right
                              + ["bimodule"] * (left and right))
    mod_labels = [(d, m) for d in window.degrees() for m in mod.basis(d)]
    A, B = mod.algebra, mod.right_algebra

    def alg_labels(spec):
        return [(d, a) for d in window.degrees() for a in spec.basis(d)]

    for d, m in mod_labels:
        if _linear(field, mod.diff, mod.diff(m)):
            report.fail("d_squared", (m,))

    if left:
        _check_leibniz(field, report, "left_leibniz", (
            (a, m, da) for da, a in alg_labels(A) for dm, m in mod_labels),
            mod.left_act, A.diff, mod.diff, mod.diff)
        _check_associative(field, report, "left_associative", (
            (a, b, m) for da, a in alg_labels(A) for db, b in alg_labels(A)
            for dm, m in mod_labels),
            A.mult, mod.left_act, mod.left_act, mod.left_act)
        for dm, m in mod_labels:
            if not lc_equal(field, mod.left_act(A.unit, m), {m: field.one}):
                report.fail("left_unit", (m,))

    if right:
        _check_leibniz(field, report, "right_leibniz", (
            (m, b, dm) for db, b in alg_labels(B) for dm, m in mod_labels),
            mod.right_act, mod.diff, B.diff, mod.diff)
        _check_associative(field, report, "right_associative", (
            (m, b, c) for db, b in alg_labels(B) for dc, c in alg_labels(B)
            for dm, m in mod_labels),
            mod.right_act, mod.right_act, B.mult, mod.right_act)
        for dm, m in mod_labels:
            if not lc_equal(field, mod.right_act(m, B.unit), {m: field.one}):
                report.fail("right_unit", (m,))

    if left and right:
        _check_associative(field, report, "bimodule", (
            (a, m, b) for da, a in alg_labels(A) for db, b in alg_labels(B)
            for dm, m in mod_labels),
            mod.left_act, mod.right_act, mod.right_act, mod.left_act)

    return report


# ---------------------------------------------------------------------------
# the two-step filtration and the two tensor computations


class FiltrationReport:
    """Verdict for the two-step free filtration of a Koszul complex."""

    def __init__(self, ok, steps, window):
        self.ok = ok
        self.steps = steps
        self.window = window

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"FiltrationReport(ok={self.ok}, steps={self.steps})"


def verify_free_filtration(mod, window):
    """Certify the filtration F1 = (z part) inside F2 = everything.

    Checks that F1 is closed under the differential and both actions, that
    the u action is a degreewise bijection onto the next u-power on each
    layer, and that both layers have the dimensions of a free rank-1 module
    over k<u> on generators in degrees 0 and n.  These facts together are
    the freeness certificate that the strict tensor computation requires.
    """
    n = getattr(mod, "kos_n", None)
    if n is None:
        raise RefusalError("free filtration verification expects a koszul_complex")
    field = mod.field
    period = n + 1
    f1 = {}
    f2 = {}
    for d in window.degrees():
        labels = mod.basis(d)
        f2[d] = labels
        f1[d] = tuple(l for l in labels if l.endswith("z"))

    ok = True
    # F1 is d-stable and stable under both actions; d(F2) lands in F1
    for d in window.degrees():
        for l in f2[d]:
            dl = mod.diff(l)
            for x in dl:
                if not x.endswith("z"):
                    ok = False
        for l in f1[d]:
            if mod.diff(l):
                # d vanishes on the z part
                ok = False
            for x in mod.left_act("u", l):
                if not x.endswith("z"):
                    ok = False
            if mod.right_act(l, "e"):
                ok = False

    # layer dimensions: F1 is free on z (degree 0), F2/F1 free on 1 (degree n)
    dims_ok = True
    for d in window.degrees():
        want_f1 = 1 if d >= 0 and d % period == 0 else 0
        want_quot = 1 if d >= n and (d - n) % period == 0 else 0
        if len(f1[d]) != want_f1 or len(f2[d]) - len(f1[d]) != want_quot:
            dims_ok = False

    # u acts by monomial bijections on each layer
    monomial_ok = True
    for d in window.degrees():
        for l in f2[d]:
            image = mod.left_act("u", l)
            if len(image) != 1:
                monomial_ok = False
                continue
            (x, c), = image.items()
            if field.is_zero(c) or (l.endswith("z") != x.endswith("z")):
                monomial_ok = False

    steps = [
        {"layer": "F1", "generator_degree": 0, "rank": 1,
         "stable": ok, "dims_match": dims_ok, "u_free": monomial_ok},
        {"layer": "F2/F1", "generator_degree": n, "rank": 1,
         "stable": ok, "dims_match": dims_ok, "u_free": monomial_ok},
    ]
    return FiltrationReport(ok and dims_ok and monomial_ok, steps, window)


def strict_tensor(mod, window):
    """k ox_{k<u>} Kos(n) on a window, as a cochain complex slice.

    Preconditions: the freeness certificate from verify_free_filtration.
    The quotient kills the image of the augmentation ideal of k<u>, which is
    spanned by u.(everything); the surviving labels are the u-degree-0 ones.
    """
    cert = verify_free_filtration(mod, window)
    if not cert.ok:
        raise RefusalError("strict tensor needs the free filtration certificate")
    n = mod.kos_n
    field = mod.field
    period = n + 1

    chosen = {}
    trackers = {}
    for d in window.degrees():
        labels = mod.basis(d)
        if not labels:
            continue
        pos = {l: i for i, l in enumerate(labels)}
        t = SpanTracker(field, track=True)
        below = mod.basis(d - period)
        k = 0
        for m in below:
            img = mod.left_act("u", m)
            vec = {}
            for x, c in img.items():
                vec[pos[x]] = c
            if vec:
                t.insert(vec, tag=("im", k))
                k += 1
        quotient_labels = []
        for l in labels:
            if t.insert({pos[l]: field.one}, tag=("q", l)):
                quotient_labels.append(l)
        if quotient_labels:
            chosen[d] = tuple(quotient_labels)
        trackers[d] = (t, pos)

    def boundary(l):
        dl = mod.diff(l)
        t_pos = trackers.get(mod.degree(l) + 1)
        if not dl or t_pos is None:
            return ()
        t, pos = t_pos
        residual, combo = t.reduce({pos[x]: c for x, c in dl.items()})
        if residual:
            raise StructuralError("differential escapes the quotient basis")
        return [(tag[1], c) for tag, c in combo.items() if tag[0] == "q"]

    return complex_from_labels(field, window, chosen, boundary)


def rhom_from_k_dims(mod, window):
    """Cohomology dims of fib(M -t-> M[g]) over a single-generator free base.

    This computes RHom from k: the fiber of the action of the generator t.
    Needs |t| = g even and >= 2 so that the fiber is again a complex.  The
    returned dict covers exactly the window degrees.
    """
    gens = getattr(mod.algebra, "free_gens", None)
    if gens is None or len(gens) != 1:
        raise RefusalError("rhom_from_k_dims needs a module over a one-generator free base")
    (tname, g), = gens
    if g < 2 or g % 2 != 0:
        raise RefusalError(f"generator degree must be even and >= 2, got {g}")
    field = mod.field
    act = mod.left_act if mod.side in ("left", "bi") else None
    if act is None:
        act = lambda a, m: mod.right_act(m, a)

    padded = window.padded()
    basis = {d: [("x", m) for m in mod.basis(d)] + [("y", m) for m in mod.basis(d + g - 1)]
             for d in padded.degrees()}

    def boundary(label):
        part, m = label
        if part == "y":
            return [(("y", x), field.neg(c)) for x, c in mod.diff(m).items()]
        return ([(("x", x), c) for x, c in mod.diff(m).items()]
                + [(("y", x), c) for x, c in act(tname, m).items()])

    rep = complex_from_labels(field, padded, basis, boundary).cohomology(representatives=False)
    return {d: rep.dims.get(d, 0) for d in window.degrees()}
