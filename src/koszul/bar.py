"""Bar constructions over a degree window: the reduced bar B(A) and the
two-sided bar B(M, A, N).

A bar word [a_1|...|a_w] over the augmentation ideal has degree
sum(|a_i| - 1); the number of letters is its weight.  The differential is
the coderivation assembled from d(sa) = -s(da) and the merge
s(a) ox s(b) -> (-1)^{|a|} s(ab), with the usual Koszul sign for moving a
degree-1 operator past the prefix:

  d[a_1|..|a_w] = - sum_i (-1)^{e_i} [..|da_i|..]
                  + sum_{i<w} (-1)^{e_i + |a_i|} [..|a_i a_{i+1}|..],
  e_i = sum_{j<i} (|a_j| - 1).

Merging shortens a word by one letter and internal terms keep the length,
so word length is a filtration.  On any fixed window only finitely many
weights can contribute; weight_bound computes that cap, and inputs where no
finite cap exists are refused rather than silently truncated.

Each bar is assembled once, in ints.  Its letters are indexed by int and
tabled once per bar with their differentials and pairwise merges (the
module differentials and actions too, for B(M, A, N)).  Over Q every
structure constant is scaled by one common denominator D, and since each
term of the differential carries exactly one of them, the differential is
1/D times an integer matrix, whose rank, kernel and d^2 are those of the
differential.  Over F_p, D = 1 and the ints are reduced mod p.

Both bars are built from chains [a_1|..|a_w; n]: words that end in an
element n of a base module N, a left module over A, of degree
sum(|a_i| - 1) + |n|.  They span the one-sided bar B(A, N), and the
reduced bar is the case N = k, whose chains are its words.  No term of the
differential is built as a chain and looked up.  The chains of degree d
with at most c letters list the base elements of degree d first, then one
block per first letter a, which lists [a|t] for the chains t of degree
d - s_a with at most c - 1 letters (s_a = |a| - 1), in their order; a
chain's position is its block's offset plus its tail's position.  The
differential is a coderivation,

  d[;n]  = [;dn],
  d[a|t] = -[da|t] + (-1)^{|a|} [ab|r] + (-1)^{s_a} [a|dt],  t = [b|r],
  d[a|t] = -[da|t] + [;a.n] + (-1)^{s_a} [a|dt],             t = [;n],

so the column of [a|t] is the tail's column moved into the block of a,
plus the head terms, whose rows are a block's offset plus the position of
t or r, or the position of a.n among the base elements.  Each list's
columns are built once, from its tails' columns.  Over N = k, d1 = 0 and
a.1 = 0, so these are the word formulas above.  B(M, A, N) = M ox B(A, N)
is one more block level: see two_sided_bar.
"""

import math

from .exactla import (
    CochainComplexSlice, RefusalError, SparseMatrix, StructuralError, Window, _integral_columns,
)


class ConvergenceError(RefusalError):
    """The weight filtration does not stabilize on the requested window."""

    def __init__(self, message, degrees=()):
        self.degrees = tuple(degrees)
        detail = f" (offending generator degrees: {sorted(set(degrees))})" if degrees else ""
        super().__init__(message + detail)


def _sniff_letter_degrees(spec, w):
    found = []
    for d in range(w.lo - 2, w.hi + 3):
        if any(l != spec.unit for l in spec.basis(d)):
            found.append(d)
    return found


def _regime(spec, w):
    """Classify the augmentation ideal for this window.

    Returns ("connective", None) when every ideal element has degree <= 0
    (shifted degree <= -1), or ("coconnected", g) when the smallest shifted
    degree is g >= 1 (g is None if no letters can reach the window at all).
    Raises ConvergenceError otherwise.
    """
    if spec.max_degree is not None and spec.max_degree <= 0:
        return ("connective", None)
    if spec.min_degree is not None and spec.min_degree >= 0:
        zero_letters = [l for l in spec.basis(0) if l != spec.unit]
        if zero_letters:
            raise ConvergenceError(
                f"{spec.name}: augmentation ideal meets degree 0", [0])
        if any(l != spec.unit for l in spec.basis(1)):
            raise ConvergenceError(
                f"{spec.name}: generators of shifted degree 0 give words of "
                "unbounded weight in one degree", [1])
        for d in range(2, max(w.hi, 0) + 2):
            if any(l != spec.unit for l in spec.basis(d)):
                return ("coconnected", d - 1)
        return ("coconnected", None)
    raise ConvergenceError(
        f"{spec.name}: basis degrees of both signs (or unbounded), no finite "
        "weight bound", _sniff_letter_degrees(spec, w))


def weight_bound(spec, w):
    """Largest bar weight that can contribute to degrees in w, or None when
    no finite bound exists.

    Connective case: letters have shifted degree <= -1, so weight <= -lo.
    Coconnected case: shifted degrees >= g >= 1, so weight <= ceil(hi / g).
    """
    try:
        regime = _regime(spec, w)
    except ConvergenceError:
        return None
    return _weight_cap(regime, w)


def _weight_cap(regime, w):
    """The reduced bar's weight cap on w for a regime (see weight_bound)."""
    kind, g = regime
    if kind == "connective":
        return max(0, -w.lo)
    if g is None:
        return 0
    return max(0, math.ceil(w.hi / g))


class _Labels:
    """Labels indexed by int on first sight: labels[i] is label i and
    degrees[i] the degree it was listed in, None for a label that no listed
    degree holds (it then sits in no basis element)."""

    def __init__(self):
        self.labels = []
        self.degrees = []
        self.index = {}

    def __call__(self, label, degree=None):
        i = self.index.get(label)
        if i is None:
            i = self.index[label] = len(self.labels)
            self.labels.append(label)
            self.degrees.append(degree)
        return i


class _Ground:
    """k as the base of the reduced bar's chains: one element, in degree 0,
    with d1 = 0 and a.1 = aug(a)1 = 0 for every letter a."""

    min_degree = max_degree = 0

    def basis(self, d):
        return ("1",) if d == 0 else ()

    def diff(self, n):
        return {}

    def left_act(self, a, n):
        return {}


class _ChainEnumerator:
    """Bar chains [a_1|..|a_w; n] by (degree, weight cap), as blocks.

    A chain ends in an element n of the base module `right` (a left module
    over spec; _Ground, k, for the reduced bar) and has degree
    sum(s_i) + |n|.  chains(d, cap) lists the chains of degree d with at
    most cap letters: the base elements of degree d, then one block per
    letter a (by shifted degree, then in listing order) holding [a|t] for
    every t of chains(d - s_a, cap - 1).  Only the block structure is
    stored (`blocks`); the labels (`label_chains`) and the positions of the
    same chains in a list with a larger cap (`positions`) are built block
    by block from the tails'.  Letters and base elements are indexed by int
    in `letter` and `element` (_Labels of them, with their shifted degrees
    and degrees)."""

    def __init__(self, spec, regime, right=None):
        self.spec = spec
        self.regime = regime
        self.right = _Ground() if right is None else right
        # the base's degree bound that the regime makes binding: the top
        # (connective, letters of negative degree) or the bottom
        self.reach = self.right.max_degree if regime[0] == "connective" else self.right.min_degree
        # the labels base element n adds to a chain's: none for k, whose chains are words
        self.end = (lambda n: ()) if right is None else (lambda n: (self.element.labels[n],))
        self.letter = _Labels()
        self.element = _Labels()
        self.letter_cache = {}
        self.memo = {}
        self.label_memo = {}
        self.position_memo = {}

    def letters(self, s):
        """Letters of shifted degree s, checking augmentation-adaptedness."""
        if s not in self.letter_cache:
            spec = self.spec
            labels = tuple(l for l in spec.basis(s + 1) if l != spec.unit)
            if s + 1 == 0:
                for l in labels:
                    if not spec.field.is_zero(spec.aug(l)):
                        raise StructuralError(
                            f"{spec.name}: basis is not augmentation-adapted "
                            f"(aug({l!r}) != 0); re-present the algebra first")
            self.letter_cache[s] = tuple(self.letter(l, s) for l in labels)
        return self.letter_cache[s]

    def clamp(self, d, cap):
        """cap lowered to the most letters a chain of degree d can have:
        max|n| - d (connective) or (d - min|n|) // g (coconnected); every
        larger cap lists the same chains.  A chain [a|t] of degree d has one
        letter more than t, so the clamp at d, less one, is at least the
        clamp at d - s_a: the block of a is chains(d - s_a, cap - 1)
        whatever the clamp."""
        kind, g = self.regime
        if kind == "connective":
            return min(cap, max(0, self.reach - d))
        return 0 if g is None else min(cap, max(0, (d - self.reach) // g))

    def blocks(self, d, cap):
        """(size, blocks, offset, base) of chains(d, cap): its length, its
        nonempty blocks as (letter, shifted degree, offset), offset[letter],
        and its base elements, which come first."""
        cap = self.clamp(d, cap)
        key = (d, cap)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        base = tuple(self.element(n, d) for n in self.right.basis(d))
        size = len(base)
        blocks, offset = [], {}
        if cap >= 1:
            kind, g = self.regime
            if kind == "connective":
                srange = range(d - self.reach, 0)
            elif g is None:
                srange = range(0)
            else:
                srange = range(g, d - self.reach + 1)
            for s in srange:
                for a in self.letters(s):
                    n = self.blocks(d - s, cap - 1)[0]
                    if n:
                        blocks.append((a, s, size))
                        offset[a] = size
                        size += n
        hit = self.memo[key] = (size, blocks, offset, base)
        return hit

    def label_chains(self, d, cap):
        """chains(d, cap) as tuples of labels: the letters', then end(n)."""
        cap = self.clamp(d, cap)
        key = (d, cap)
        hit = self.label_memo.get(key)
        if hit is None:
            _, blocks, _, base = self.blocks(d, cap)
            out = list(map(self.end, base))
            labels = self.letter.labels
            for a, s, _ in blocks:
                out += map((labels[a],).__add__, self.label_chains(d - s, cap - 1))
            hit = self.label_memo[key] = tuple(out)
        return hit

    def positions(self, d, small, big):
        """The position in chains(d, big) of each chain of chains(d, small),
        small <= big, or None when the clamps make them one list."""
        small, big = self.clamp(d, small), self.clamp(d, big)
        if small == big:
            return None
        key = (d, small, big)
        hit = self.position_memo.get(key)
        if hit is None:
            hit = list(range(len(self.blocks(d, small)[3])))
            offset = self.blocks(d, big)[2]
            for a, s, _ in self.blocks(d, small)[1]:
                base = offset[a]
                inner = self.positions(d - s, small - 1, big - 1)
                if inner is None:
                    inner = range(self.blocks(d - s, small - 1)[0])
                hit += [base + i for i in inner]
            self.position_memo[key] = hit
        return hit


class _LetterTable:
    """The letters of one bar in ints, tabled once, and the differential of
    its chains assembled from them block by block.

    For each letter the enumerator has listed: diff[a], its differential,
    merge[a][b], the product with letter b wherever [a|b] can sit inside a
    chain of degree in [lo, hi] (the chains whose differential is
    assembled), and act[a][n], its action on each listed base element n;
    and base_diff[n], the differential of n.  Each is a list of (index,
    scalar) pairs.  A product that fails (it leaves the augmentation ideal,
    or the spec raises StructuralError) is tabled as None and its error is
    raised only when a column uses it.  Terms on labels that are no listed
    letter or base element get indices too, so that they miss every basis
    and are reported there.

    The M level of a two-sided bar adds its tables with `lincomb` and
    `tabled`; `scale_to_ints` then turns every tabled scalar into an int.
    The table is built after the enumerator has listed every chain the bar
    holds, so that every letter and base element is indexed with its
    degree.
    """

    def __init__(self, spec, enum, lo, hi, size):
        self.field = spec.field
        self.enum = enum
        self.failures = {}
        self.lincombs = []
        self.memo = {}
        # rows[i] is i, through the largest basis, which holds every list a
        # column lands in: one int object per row, shared by every column
        self.rows = list(range(size))
        letter, element, right, reach = enum.letter, enum.element, enum.right, enum.reach
        letters = list(zip(letter.labels, letter.degrees))
        elements = list(element.labels)
        self.diff = [self.lincomb(spec.diff(x), letter) for x, _ in letters]
        # [a|b] sits in chains of degree <= sa + sb + max|n| (connective:
        # the other letters are negative), or >= sa + sb + min|n| (coconnected)
        connective = enum.regime[0] == "connective"
        self.merge = [
            [self.tabled((a, b), lambda x=x, y=y: _merge(spec, x, y), letter)
             if (lo <= sx + sy + reach if connective else sx + sy + reach <= hi) else []
             for b, (y, sy) in enumerate(letters)]
            for a, (x, sx) in enumerate(letters)]
        self.base_diff = [self.lincomb(right.diff(n), element) for n in elements]
        self.act = [[self.tabled(("a.n", a, i), lambda x=x, n=n: right.left_act(x, n), element)
                     for i, n in enumerate(elements)] for a, (x, _) in enumerate(letters)]

    def lincomb(self, lc, index):
        """lc as a tabled list of (index(label), scalar) pairs."""
        out = [(index(m), c) for m, c in lc.items()]
        self.lincombs.append(out)
        return out

    def tabled(self, key, make, index):
        """make() as a tabled lincomb, or None with the StructuralError it
        raised recorded under key."""
        try:
            lc = make()
        except StructuralError as exc:
            self.failures[key] = exc
            return None
        return self.lincomb(lc, index)

    def scale_to_ints(self):
        """Rewrite every tabled lincomb as (index, int) pairs, zeros
        dropped, and return the common scale D, by `_integral_columns` on
        the lincombs: over Q the ints are D times the scalars, D the lcm of
        all their denominators, and each term of the bar differential
        carries exactly one structure constant, so the differential is 1/D
        times an integer matrix.  Over F_p D is 1 and the ints are the
        scalars mod p."""
        scale, ints = _integral_columns(self.field, [dict(lc) for lc in self.lincombs])
        for lc, col in zip(self.lincombs, ints):
            lc[:] = col.items()
        return scale

    def columns(self, d, cap):
        """The differential of chains(d, cap) as (columns, errors).

        columns[j] maps rows of chains(d + 1, cap) to nonzero ints (in
        [0, p) over F_p) and follows the module docstring's recursion: a
        base element's column [;dn], and for [a|t] the tail's column, moved
        into the block of a, plus the head terms -[da|t] and (-1)^{|a|}
        [ab|r] (t = [b|r]) or [;a.n] (t = [;n]), summed into it.
        errors[j] = (failure, term) for a column that uses a failing
        product (failure, its leftmost one's StructuralError) or has a term
        outside chains(d + 1, cap) (term, the first one's labels); a
        failure is raised before any term is looked up, as the letters are
        read left to right.  Memoized by the clamps of cap at d and at
        d + 1, which fix both lists.
        """
        enum = self.enum
        key = (d, enum.clamp(d, cap), enum.clamp(d + 1, cap))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        _, _, target, upper = enum.blocks(d + 1, cap)
        rows = self.rows
        p = self.field.p
        degrees, labels = enum.letter.degrees, enum.letter.labels
        # [;dn] and [;a.n] land on the base elements of degree d + 1, listed first
        elements = dict(zip(upper, rows))
        _, blocks, _, bare = enum.blocks(d, cap)  # bare: the n of the chains [;n]
        cols, errors = [], {}
        for j, n in enumerate(bare):
            col = {}
            for x, c in self.base_diff[n]:
                if x in elements:
                    _add_run((col,), (elements[x],), c, p)
                else:
                    errors.setdefault(j, (None, enum.end(x)))
            cols.append(col)
        for a, s, off in blocks:
            tails, tail_errors = self.columns(d - s, cap - 1)
            _, tail_blocks, _, tail_bare = enum.blocks(d - s, cap - 1)
            # (-1)^{s_a} [a|dt]: the tail's target is the block of a in
            # chains(d + 1, cap), absent only when every tail column is empty
            base = target.get(a)
            block = _moved(tails, () if base is None else
                           rows[base:base + enum.blocks(d + 1 - s, cap - 1)[0]], s % 2, p)
            # tail position -> its first failing product, its first term outside the target
            failed, outside = {}, {}
            # -[da|t]: t keeps its position, in the block of each letter of da
            for m, c in self.diff[a]:
                at = target.get(m) if degrees[m] == s + 1 else None
                if at is None:
                    for i, t in enumerate(enum.label_chains(d - s, cap - 1)):
                        outside.setdefault(i, (labels[m],) + t)
                    continue
                _add_run(block, rows[at:at + len(block)], -c if p is None else p - c, p)
            # [;a.n], for t = [;n]: the tails' base elements come first
            for i, n in enumerate(tail_bare):
                prod = self.act[a][n]
                if prod is None:
                    failed[i] = self.failures["a.n", a, n]
                    continue
                for x, c in prod:
                    if x in elements:
                        _add_run(block[i:i + 1], (elements[x],), c, p)
                    else:
                        outside.setdefault(i, enum.end(x))
            # (-1)^{|a|} [ab|r], for t = [b|r]: one run per block b of the tails
            for b, sb, off_b in tail_blocks:
                prod = self.merge[a][b]
                n = enum.blocks(d - s - sb, cap - 2)[0]
                if not prod:
                    if prod is None:
                        failed.update(dict.fromkeys(range(off_b, off_b + n), self.failures[a, b]))
                    continue
                # the merge drops a letter: r's position among cap - 1 letters
                moved = enum.positions(d - s - sb, cap - 2, cap - 1)
                for m, c in prod:
                    at = target.get(m) if degrees[m] == s + sb + 1 else None
                    if at is None:
                        for i, r in enumerate(enum.label_chains(d - s - sb, cap - 2), off_b):
                            outside.setdefault(i, (labels[m],) + r)
                        continue
                    _add_run(block[off_b:off_b + n],
                             rows[at:at + n] if moved is None else [rows[at + i] for i in moved],
                             c if s % 2 else (-c if p is None else p - c), p)
            if failed or outside or tail_errors:
                _join_errors(errors, off, failed, outside, tail_errors, (labels[a],).__add__)
            cols += block
        hit = self.memo[key] = (cols, errors)
        return hit


def _moved(cols, rows, negate, p):
    """Copies of cols with row i renamed rows[i], negated (mod p over F_p,
    where p is not None) when negate is true."""
    out = []
    for col in cols:
        new = {}
        if not negate:
            for i, x in col.items():
                new[rows[i]] = x
        elif p is None:
            for i, x in col.items():
                new[rows[i]] = -x
        else:
            for i, x in col.items():
                new[rows[i]] = p - x
        out.append(new)
    return out


def _add_run(cols, rows, c, p):
    """cols[k][rows[k]] += c for every k, reduced mod p over F_p (p is None
    over Q), a zero sum deleted."""
    for col, row in zip(cols, rows):
        x = col.get(row)
        if x is None:
            col[row] = c
        else:
            x = x + c if p is None else (x + c) % p
            if x:
                col[row] = x
            else:
                del col[row]


def _join_errors(errors, off, failed, outside, tail_errors, name):
    """errors[off + i] for each tail position i with an error: the head's
    failing product, else the tail's (the leftmost one), and the head's
    term outside the target, else the tail's, named whole by name(term)."""
    for i in failed.keys() | outside.keys() | tail_errors.keys():
        tail_failure, tail_term = tail_errors.get(i, (None, None))
        term = outside.get(i)
        if term is None and tail_term is not None:
            term = name(tail_term)
        errors[off + i] = (failed.get(i) or tail_failure, term)


def _merge(spec, x, y):
    lc = spec.mult(x, y)
    if spec.unit in lc:
        raise StructuralError(f"merge {x!r}*{y!r} leaves the augmentation ideal")
    return lc


class BarSlice:
    """A bar complex materialized on a window: the reduced bar B(A) of spec,
    or B(M, A, N) when left and right are the modules M and N, with words
    (m; a_1..a_w; n), M acting on the right of itself (m.a) and N on the
    left (a.n).

    The requested window is padded by one degree on each side before
    materializing, so cohomology is reliable on every requested degree.
    basis maps degree to the tuple of words (tuples of letters)."""

    def __init__(self, spec, window, complex_, max_weight, left=None, right=None):
        self.spec = spec
        self.field = spec.field
        self.window = window
        self.padded = complex_.window
        self.basis = complex_.basis
        self.complex = complex_
        self.max_weight = max_weight
        self.left = left
        self.right = right

    def dims(self):
        return self.complex.dims()

    def homology_dims(self):
        """Cohomology dimensions on the requested (reliable) degrees."""
        rep = self.complex.cohomology(representatives=False)
        return {d: rep.dims.get(d, 0) for d in self.window.degrees()}

    def __repr__(self):
        names = self.spec.name if self.left is None else \
            f"{self.left.name}, {self.spec.name}, {self.right.name}"
        return f"BarSlice({names}, window={self.window!r}, dims={self.dims()})"


def _checked_cap(cap, max_weight):
    """max_weight when given, else the computed cap; refused when negative."""
    cap = cap if max_weight is None else max_weight
    if cap < 0:
        raise RefusalError(f"negative weight cap {cap}")
    return cap


def _bar_slice(spec, window, padded, basis, columns, scale, cap, left=None, right=None):
    """The BarSlice whose differential leaving degree d is columns(d), 1/scale
    times its int columns; the first column with errors raises its failure,
    else its term outside the basis, as complex_from_labels would."""
    diffs = {}
    for d, labels in basis.items():
        if labels and d + 1 in padded:
            cols, errors = columns(d)
            if errors:
                j = min(errors)
                failure, term = errors[j]
                raise failure or StructuralError(
                    f"d({labels[j]!r}) has term {term!r} outside the degree {d + 1} basis")
            diffs[d] = SparseMatrix.from_int_columns(spec.field, len(basis[d + 1]), cols, scale)
    complex_ = CochainComplexSlice(spec.field, padded, basis, diffs)
    return BarSlice(spec, window, complex_, cap, left, right)


def bar_complex(spec, window, max_weight=None):
    """Materialize the reduced bar complex of spec over the padded window;
    d^2 = 0 is checked when its cohomology is taken.

    max_weight overrides the computed cap (expert use: a smaller cap computes
    a filtration stage, a larger one changes nothing).  Refuses inputs with
    no finite weight bound, naming the offending generator degrees.
    """
    padded = window.padded(1)
    regime = _regime(spec, padded)
    cap = _checked_cap(_weight_cap(regime, padded), max_weight)
    enum = _ChainEnumerator(spec, regime)
    basis = {d: enum.label_chains(d, cap) for d in padded.degrees()}
    table = _LetterTable(spec, enum, padded.lo, padded.hi, max(map(len, basis.values())))
    scale = table.scale_to_ints()
    return _bar_slice(spec, window, padded, basis, lambda d: table.columns(d, cap), scale, cap)


def bar_homology_dims(spec, window, max_weight=None):
    """Bar cohomology dimensions on the requested degrees."""
    return bar_complex(spec, window, max_weight=max_weight).homology_dims()


# ---------------------------------------------------------------------------
# two-sided bar


def two_sided_bar(left, spec, right, window, max_weight=None):
    """Materialize B(left, spec, right) = left ox B(spec, right) over the
    padded window.

    left must be a right module over spec (an object with basis/degree/diff/
    right_act and degree bounds), right a left module (left_act).  On the
    chains c of B(spec, right) (module docstring) the differential is

      d(m; c) = (dm; c) + (-1)^{|m|} (m; dc) - (-1)^{|m|} (m.a_1; t),
      c = [a_1|t],

    which combines the internal differentials, the bar merges and the two
    outer merges m.a_1 and a_w.n.  Degree d lists (m; c) by (|m|, m, c):
    one block per m, by degree and then in left's listing order, holding
    the chains of degree d - |m| in their order; its labels are
    (m, (a_1, .., a_w), n).  d^2 = 0 is checked when its cohomology is
    taken.
    """
    padded = window.padded(1)
    regime = _regime(spec, padded)
    connective = regime[0] == "connective"
    bound = "max_degree" if connective else "min_degree"
    if getattr(left, bound) is None or getattr(right, bound) is None:
        raise ConvergenceError(
            f"two-sided bar over a {regime[0]} algebra needs modules bounded "
            f"{'above' if connective else 'below'}", [])
    # the chains of degree d - |m| reach down to lo (connective: letters
    # have negative degree) or up to hi (coconnected); the cap is the most
    # letters a chain there can have
    lo = padded.lo - (left.max_degree if connective else 0)
    hi = padded.hi - (0 if connective else left.min_degree)
    if not connective:  # the smallest letter degree, up to the largest a chain can hold
        regime = _regime(spec, Window(padded.lo, max(padded.hi, hi - right.min_degree)))
    enum = _ChainEnumerator(spec, regime, right)
    cap = _checked_cap(enum.clamp(lo if connective else hi, math.inf), max_weight)

    # degree d holds the chains of degree d - |m| once per m, and the module
    # bounds make the range of |m| finite.  offsets[d][m] is the offset of
    # m's block
    lindex = _Labels()
    basis, offsets = {}, {}
    for d in padded.degrees():
        labels, offsets[d] = [], {}
        for dm in (range(d - right.max_degree, left.max_degree + 1) if connective
                   else range(left.min_degree, d - right.min_degree + 1)):
            ms = left.basis(dm)
            chains = enum.label_chains(d - dm, cap) if ms else ()
            if not chains:
                continue
            split = [(c[:-1], c[-1]) for c in chains]
            for m in ms:
                offsets[d][lindex(m, dm)] = len(labels)
                labels += [(m, w, n) for w, n in split]
        basis[d] = labels

    table = _LetterTable(spec, enum, lo, hi, max(map(len, basis.values())))
    letters = list(enumerate(enum.letter.labels[:len(table.diff)]))
    ms = list(enumerate(lindex.labels))
    ldiff = [table.lincomb(left.diff(m), lindex) for _, m in ms]
    ract = [[table.tabled(("m.a", mi, a), lambda m=m, x=x: left.right_act(m, x), lindex)
             for a, x in letters] for mi, m in ms]
    scale = table.scale_to_ints()
    p = spec.field.p
    mlabels, mdegrees = lindex.labels, lindex.degrees

    def columns(d):
        """The columns of degree d: (m; dc) is c's column moved into the
        block of m, and (dm; c) and (m.a_1; t) are runs of head terms."""
        rows = table.rows
        target = offsets[d + 1]
        cols, errors = [], {}
        for mi, off in offsets[d].items():
            dm = mdegrees[mi]
            chain_cols, chain_errors = table.columns(d - dm, cap)
            # (-1)^{|m|} (m; dc), in the block of m
            base = target.get(mi)
            block = _moved(chain_cols, () if base is None else
                           rows[base:base + enum.blocks(d + 1 - dm, cap)[0]], dm % 2, p)
            # chain position -> its failing m.a_1, its first term outside the target
            failed, outside = {}, {}
            # (dm; c): c keeps its position, in the block of each term of dm
            for x, c in ldiff[mi]:
                at = target.get(x) if mdegrees[x] == dm + 1 else None
                if at is None:
                    for i, t in enumerate(enum.label_chains(d - dm, cap)):
                        outside.setdefault(i, (mlabels[x], t[:-1], t[-1]))
                    continue
                _add_run(block, rows[at:at + len(block)], c, p)
            # -(-1)^{|m|} (m.a; t), for c = [a|t]: one run per block a of the chains
            for a, s, off_a in enum.blocks(d - dm, cap)[1]:
                prod = ract[mi][a]
                n = enum.blocks(d - dm - s, cap - 1)[0]
                if not prod:
                    if prod is None:
                        failed.update(dict.fromkeys(range(off_a, off_a + n),
                                                    table.failures["m.a", mi, a]))
                    continue
                # t keeps its letters under m.a: its position among cap letters
                moved = enum.positions(d - dm - s, cap - 1, cap)
                for x, c in prod:
                    at = target.get(x) if mdegrees[x] == dm + s + 1 else None
                    if at is None:
                        for i, t in enumerate(enum.label_chains(d - dm - s, cap - 1), off_a):
                            outside.setdefault(i, (mlabels[x], t[:-1], t[-1]))
                        continue
                    _add_run(block[off_a:off_a + n],
                             rows[at:at + n] if moved is None else [rows[at + i] for i in moved],
                             c if dm % 2 else (-c if p is None else p - c), p)
            if failed or outside or chain_errors:
                _join_errors(errors, off, failed, outside, chain_errors,
                             lambda t, m=mlabels[mi]: (m, t[:-1], t[-1]))
            cols += block
        return cols, errors

    return _bar_slice(spec, window, padded, basis, columns, scale, cap, left, right)


def derived_tensor_dims(left, spec, right, window, max_weight=None):
    """Cohomology dimensions of B(left, spec, right) on the requested window
    (this computes the derived tensor product of the two modules over spec)."""
    return two_sided_bar(left, spec, right, window, max_weight=max_weight).homology_dims()
