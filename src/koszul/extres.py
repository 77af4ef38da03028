"""Ext dimensions via stepwise minimal semifree resolutions.

Independent of the bar construction: the resolution F of k adjoins free
generators degree by degree from 0 downward.  Stage t is the cone of
(F -> k) as built so far on the degrees t-1, t, t+1; its d_t is eliminated
once for the cycles Z^t and its d_{t-1} once for the boundaries B^t.  The
generators adjoined in degree t-1 are the cycles that extend
B^t + U.Z^t, where U is a complement of m^2 in the augmentation ideal m of
A^0.  A^0 acts on H^t through the local ring H^0, so m.H^t = U.H^t
(Nakayama), and the stage adjoins dim H^t/mH^t generators: the generator
count of a minimal resolution, which depends on the algebra and not on the
order its basis is listed in.  Hom(F, k) then has zero differential, and
Ext^i is a literal count of generators in degree -i.

The stages run in ints on index vectors, as the bars do (koszul.bar).
The connective cover's differential, products and augmentation, and U,
are tabled once as ints over one common denominator (`_Table`), and the
basis element a (x) g of degree d is indexed by g's block offset in
degree d plus a's position in its degree.  A Fraction is formed in one
place: when a generator's delta is stored in `ResolutionState.gens`.
"""

from fractions import Fraction
from math import lcm

from .exactla import (
    SpanTracker, SparseMatrix, RefusalError, StructuralError, _integral_columns,
)
from .dga import connective_cover, _augmentation_ideal, _bilinear
from .artin import is_artin


class ResolutionState:
    """A semifree resolution of k over a connective complete slice.

    gens is the ordered list (label, degree, delta): delta is the value of
    the differential on 1 (x) gen, a lincomb over (algebra label, earlier
    gen label) pairs.  The free module has basis a (x) g in degree
    |a| + |g|, and differential d(a (x) g) = da (x) g + (-1)^{|a|} a delta(g).
    _ints[i] is gens[i]'s delta in ints, (S, terms), with delta the sum of
    c/S (x) g over the terms (x, g, c): x the flat index of an algebra
    label (see `_Table`), g a generator's index.  _of_degree maps each
    degree to the indices of its generators, so that a stage reads only
    the generators that have a basis element in its degrees.
    """

    def __init__(self, algebra, depth):
        self.algebra = algebra
        self.depth = depth
        self.certified_above = -depth
        self.gens = [("g0", 0, {})]
        self._ints = [(1, [])]
        self._of_degree = {0: [0]}

    def _adjoin(self, degree, delta, ints):
        """Append a generator of degree with its delta and its (S, terms)."""
        self._of_degree.setdefault(degree, []).append(len(self.gens))
        self.gens.append((f"g{len(self.gens)}", degree, delta))
        self._ints.append(ints)

    def gen_counts(self):
        counts = {}
        for _, s, _ in self.gens:
            counts[s] = counts.get(s, 0) + 1
        return counts

    def __repr__(self):
        return (f"ResolutionState({self.algebra.name}, gens="
                f"{[s for _, s, _ in self.gens]}, depth={self.depth})")


def _indecomposables(a):
    """A complement U of m^2 in the augmentation ideal m of A^0, as a list
    of lincombs over degree-0 labels: the basis vectors of m
    (dga._augmentation_ideal) that extend m^2."""
    field, labels = a.field, a.labels(0)

    def product(i, j):
        return a.vector(a.mult(labels[i], labels[j]), 0)

    ideal = _augmentation_ideal(field, a.vector({a.unit: field.one}, 0),
                                [a.aug_of(l) for l in labels])
    tracker = SpanTracker(field)
    for u in ideal:
        for v in ideal:
            tracker.insert(_bilinear(field, product, u, v))
    return [a.lincomb(u, 0) for u in ideal if tracker.insert(u)]


class _Table:
    """The connective cover a in ints over one denominator, tabled once.

    Labels are indexed flat, degree by degree from the lowest: the i-th
    label of degree e is start[e] + i, for the dims[e] > 0 labels of each
    degree e that has any.  diff[x] is dx as (position in
    degree |x| + 1, int) pairs and mult[x][y] the product xy as (position
    in degree |x| + |y|, int) pairs; aug[i] is the augmentation of the i-th
    label of degree 0, and complement lists U as (position in degree 0,
    int) pairs.  Every int is `scale` times the field value, scale the lcm
    of all their denominators; over F_p scale is 1 and the ints are the
    values mod p.
    """

    def __init__(self, a, complement):
        self.field = a.field
        self.labels = [l for e in sorted(a.basis) for l in a.labels(e)]
        self.dims = {e: m for e in sorted(a.basis) if (m := a.dim(e))}
        self.start, n = {}, 0
        for e, m in self.dims.items():
            self.start[e] = n
            n += m
        pos = {l: i for l, (_, i) in a.index.items()}

        def positions(lc):
            return {pos[l]: c for l, c in lc.items()}

        labels = self.labels
        lcs = [positions(a.diff(x)) for x in labels]
        lcs += [positions(a.mult(x, y)) for x in labels for y in labels]
        lcs += [{i: a.aug_of(l) for i, l in enumerate(a.labels(0))}]
        lcs += [positions(u) for u in complement]
        self.scale, ints = _integral_columns(self.field, lcs)
        aug = ints[n + n * n]
        self.aug = [aug.get(i, 0) for i in range(a.dim(0))]
        ints = [list(lc.items()) for lc in ints]
        self.diff = ints[:n]
        self.mult = [ints[n + n * x:n + n * (x + 1)] for x in range(n)]
        self.complement = ints[n + n * n + 1:]

    def generators(self, state, d):
        """The generators g, in order, with labels in degree d - |g|: those
        with a basis element a (x) g in degree d."""
        of_degree = state._of_degree
        return sorted(g for e in self.dims for g in of_degree.get(d - e, ()))

    def blocks(self, state, d):
        """The basis of degree d of the resolution by index: the block
        offset of each generator that has one (a dict), and each index's
        generator and flat algebra label."""
        offsets, owner, flat = {}, [], []
        for g in self.generators(state, d):
            e = d - state.gens[g][1]
            offsets[g] = len(owner)
            owner += [g] * self.dims[e]
            flat += range(self.start[e], self.start[e] + self.dims[e])
        return offsets, owner, flat

    def differential(self, state, d, target):
        """d_d of the resolution as a SparseMatrix, target the `blocks` of
        degree d + 1: the column of a (x) g holds da (x) g and
        (-1)^{|a|} a.x (x) g' for the terms (x, g', c) of g's delta, in ints
        at the table's scale times the lcm of the deltas' scales; after
        SparseMatrix's gcd, the matrix a label-level assembly gives.  A
        generator without a block in the target has da = 0 for every a of
        its degree, and a term whose generator has none has a.x = 0: both
        are passed over."""
        p = self.field.p
        diff, mult, start, dims = self.diff, self.mult, self.start, self.dims
        gens = [(g, d - state.gens[g][1], *state._ints[g])
                for g in self.generators(state, d)]
        common = lcm(*(S for _, _, S, _ in gens))
        offsets = target[0]
        cols = []
        for g, e, S, terms in gens:
            o = offsets.get(g)  # read only where some da is not 0
            k = common // S if e % 2 == 0 else -(common // S)
            terms = [(offsets[h], k * c, y) for y, h, c in terms if h in offsets]
            for x in range(start[e], start[e] + dims[e]):
                col = {o + i: common * c for i, c in diff[x]}
                row = mult[x]
                for o2, c, y in terms:
                    for i, c2 in row[y]:
                        r = o2 + i
                        col[r] = col.get(r, 0) + c * c2
                cols.append({r: v % p for r, v in col.items() if v % p} if p
                            else {r: v for r, v in col.items() if v})
        return SparseMatrix.from_int_columns(
            self.field, len(target[1]), cols, self.scale * common)


def _stage(table, state, t, blocks):
    """Stage t of the cone of (resolution -> k), blocks those of degree t:
    (d_{t-1}, d_t), with the augmentation as d_0 onto the one-dimensional
    k at t = 0."""
    below = table.differential(state, t - 1, blocks)
    if t == 0:
        cols = [{0: c} if c else {} for c in table.aug]
        return below, SparseMatrix.from_int_columns(table.field, 1, cols, table.scale)
    return below, table.differential(state, t, table.blocks(state, t + 1))


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
    p = a.field.p
    state = ResolutionState(a, depth)
    table = _Table(a, _indecomposables(a))
    mult, scale, labels, zero = table.mult, table.scale, table.labels, table.start[0]
    for t in range(0, -depth, -1):
        offsets, owner, flat = blocks = table.blocks(state, t)
        if not owner:
            continue
        below, d_t = _stage(table, state, t, blocks)
        cycles = d_t.int_kernel()
        span = below.eliminate()[0]
        for u in table.complement:
            rows = [(mult[zero + y], c) for y, c in u]
            for z, s in cycles:
                w = {}
                for i, c in z.items():
                    o, x = offsets[owner[i]], flat[i]
                    for row, cu in rows:
                        for r, c2 in row[x]:
                            w[o + r] = w.get(o + r, 0) + cu * c * c2
                w = {r: v % p for r, v in w.items() if v % p} if p \
                    else {r: v for r, v in w.items() if v}
                span.insert_ints(w, scale * scale * s)
        for z, s in cycles:
            if not span.insert_ints(dict(z), s):
                continue
            unit = {}  # degree-t generator -> unit coefficient in z
            for i, c in z.items():
                g = owner[i]
                if state.gens[g][1] == t and (e := table.aug[flat[i] - zero]):
                    v = unit.get(g, 0) + c * e
                    if v % p if p else v:
                        unit[g] = v
                    else:
                        unit.pop(g, None)
            if unit:
                raise StructuralError(
                    f"resolution lost minimality at degree {t}: a defect class has "
                    f"unit component on generator {state.gens[next(iter(unit))][0]!r}")
            state._adjoin(t - 1, {
                (labels[flat[i]], state.gens[owner[i]][0]): Fraction(c, s) if p is None else c
                for i, c in z.items()}, (s, [(flat[i], owner[i], c) for i, c in z.items()]))
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
