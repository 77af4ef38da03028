"""Ext dimensions via stepwise minimal semifree resolutions.

Independent of the bar construction: the resolution F of k adjoins free
generators degree by degree from 0 downward.  Stage t is one complex, the
cone of (F -> k) as built so far on the degrees t-1, t, t+1, assembled by
`complex_from_labels`; its d_t is eliminated once for the cycles Z^t and
its d_{t-1} once for the boundaries B^t.  The generators adjoined in degree
t-1 are the cycles that extend B^t + U.Z^t, where U is a complement of m^2
in the augmentation ideal m of A^0.  A^0 acts on H^t through the local ring
H^0, so m.H^t = U.H^t (Nakayama), and the stage adjoins dim H^t/mH^t
generators: the generator count of a minimal resolution, which depends on
the algebra and not on the order its basis is listed in.  Hom(F, k) then
has zero differential, and Ext^i is a literal count of generators in
degree -i.
"""

from .exactla import (
    SpanTracker, RefusalError, StructuralError, Window, complex_from_labels,
    vec_add_into,
)
from .dga import connective_cover
from .artin import is_artin

# the one label of the augmentation's target k in the degree-0 stage
_K = "k"


class ResolutionState:
    """A semifree resolution of k over a connective complete slice.

    gens is the ordered list (label, degree, delta): delta is the value of
    the differential on 1 (x) gen, a lincomb over (algebra label, earlier
    gen label) pairs.  The free module has basis a (x) g in degree
    |a| + |g|, and differential d(a (x) g) = da (x) g + (-1)^{|a|} a delta(g).
    """

    def __init__(self, algebra, depth):
        self.algebra = algebra
        self.depth = depth
        self.certified_above = -depth
        self.gens = [("g0", 0, {})]
        self._degree = {"g0": 0}
        self._delta = {"g0": {}}

    def _adjoin(self, label, degree, delta):
        self.gens.append((label, degree, delta))
        self._degree[label] = degree
        self._delta[label] = delta

    def gen_counts(self):
        counts = {}
        for _, s, _ in self.gens:
            counts[s] = counts.get(s, 0) + 1
        return counts

    def generator_degrees(self):
        return [s for _, s, _ in self.gens]

    def basis(self, t):
        out = []
        for g, s, _ in self.gens:
            for a in self.algebra.labels(t - s):
                out.append((a, g))
        return tuple(out)

    def _terms(self, label):
        """d(a (x) g) as (label, scalar) terms; repeated labels add up."""
        a_ = self.algebra
        field = a_.field
        a, g = label
        for a2, c in a_.diff(a).items():
            yield (a2, g), c
        odd = a_.degree(a) % 2
        for (b, g2), c in self._delta[g].items():
            for ab, c2 in a_.mult(a, b).items():
                c3 = field.mul(c, c2)
                yield (ab, g2), field.neg(c3) if odd else c3

    def diff_lc(self, lc):
        field = self.algebra.field
        out = {}
        for p, c in lc.items():
            for q, c2 in self._terms(p):
                vec_add_into(field, out, {q: c2}, c)
        return out

    def __repr__(self):
        return (f"ResolutionState({self.algebra.name}, gens="
                f"{self.generator_degrees()}, depth={self.depth})")


def _indecomposables(a):
    """A complement U of m^2 in the augmentation ideal m of A^0, as a list
    of lincombs over degree-0 labels."""
    field = a.field
    ideal = []
    for l in a.labels(0):
        if l != a.unit:
            u = {l: field.one}
            vec_add_into(field, u, {a.unit: field.one}, field.neg(a.aug_of(l)))
            ideal.append(u)
    tracker = SpanTracker(field)
    for u in ideal:
        for v in ideal:
            tracker.insert(a.vector(a.mult_lc(u, v), 0))
    return [u for u in ideal if tracker.insert(a.vector(u, 0))]


def _act(a, u, z):
    """u.z as (label, scalar) terms, for u a lincomb over A^0 and z one over
    resolution labels."""
    mul = a.field.mul
    for s, c in u.items():
        for (b, g), c2 in z.items():
            for sb, c3 in a.mult(s, b).items():
                yield (sb, g), mul(mul(c, c2), c3)


def minimal_resolution(fdga, depth):
    """Resolve k over an Artin slice by adjoining generators from 0 down.

    Stage t (t = 0, -1, ..., 1 - depth) is one complex, the cone of
    (resolution -> k) on [t-1, t+1] with the augmentation as a one-label
    target at t = 0.  Every cycle of d_t that extends B^t + U.Z^t, in kernel
    order, becomes a generator in degree t-1 whose differential is that
    cycle: dim H^t/mH^t generators whatever order the basis is listed in
    (see the module docstring), and minimality is still certified rather
    than assumed.  Positive-degree chains are removed up front by the
    connective cover (a quasi-isomorphism whenever the Artin verdict holds).
    After the run the cone is acyclic in all degrees above -depth.
    """
    report = is_artin(fdga)
    if not report.verdict:
        raise RefusalError(
            f"{fdga.name}: minimal resolutions need an Artin algebra, got "
            f"connective={report.connective}, local={report.h0_local}, "
            f"residue_is_k={report.residue_is_k}")
    if not isinstance(depth, int) or depth < 0:
        raise RefusalError(f"depth must be a nonnegative integer, got {depth!r}")
    a = connective_cover(fdga)
    field = a.field
    state = ResolutionState(a, depth)
    complement = _indecomposables(a)

    def boundary(p):  # the cone's d: d on the resolution, eps on degree 0
        yield from state._terms(p)
        if p[1] == "g0" and not field.is_zero(eps := a.aug_of(p[0])):
            yield _K, eps

    for t in range(0, -depth, -1):
        basis = {d: state.basis(d) for d in (t - 1, t, t + 1)}
        if not basis[t]:
            continue
        if t == 0:
            basis[1] = (_K,)
        stage = complex_from_labels(field, Window(t - 1, t + 1), basis, boundary)
        cycles = stage.d_at(t).nullspace_basis()
        span = stage.d_at(t - 1).eliminate()[0]
        labels = basis[t]
        lcs = [{labels[i]: c for i, c in z.items()} for z in cycles]
        for u in complement:
            for z in lcs:
                span.insert(stage.vector(t, _act(a, u, z)))
        for z, lc in zip(cycles, lcs):
            if not span.insert(z):
                continue
            unit = {}  # degree-t generator -> unit coefficient in z
            for (x, g), c in lc.items():
                if state._degree[g] == t:
                    vec_add_into(field, unit, {g: a.aug_of(x)}, c)
            if unit:
                raise StructuralError(
                    f"resolution lost minimality at degree {t}: a defect "
                    f"class has unit component on generator {next(iter(unit))!r}")
            state._adjoin(f"g{len(state.gens)}", t - 1, lc)
    return state


def ext_dims(fdga, window):
    """Graded dimensions of Ext_A(k, k) over the window, by resolution.

    Minimality makes Hom(resolution, k) a zero-differential complex, so the
    dimension in degree i is the number of generators in degree -i.  Depth
    is chosen from the window; degrees below 0 report 0.
    """
    depth = max(0, window.hi)
    res = minimal_resolution(fdga, depth)
    counts = res.gen_counts()
    return {d: counts.get(-d, 0) for d in window.degrees()}
