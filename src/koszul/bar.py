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
weights can contribute; weight_bound gives an upper bound, the bars report
the exact cap (the most letters a chain has), and inputs where no finite
cap exists are refused rather than silently truncated.

Each bar is assembled once, in ints, as its dual's columns (below).  Its
letters are indexed by int and tabled once per bar with their
differentials d(sa) = -s(da) and pairwise merges (the module
differentials and actions too, for B(M, A, N)); a product that fails is
tabled as its error.  Over Q every structure constant is scaled by one
common denominator D, and since each term of the differential carries
exactly one of them, the differential is 1/D times an integer matrix,
whose rank, kernel and d^2 are those of the differential.  Over F_p,
D = 1 and the ints are reduced mod p.

Both bars are built from chains [a_1|..|a_w; n]: words that end in an
element n of a base module N, a left module over A, of degree
sum(|a_i| - 1) + |n|.  They span the one-sided bar B(A, N), and the
reduced bar is the case N = k, whose chains are its words.  No term of the
differential is built as a chain and looked up.  The chains of degree d
list the base elements of degree d first, then one block per first letter
a, which lists [a|t] for the chains t of degree d - s_a (s_a = |a| - 1),
in their order; a chain's position is its block's offset plus its tail's
position.  The differential is a coderivation,

  d[;n]  = [;dn],
  d[a|t] = -[da|t] + (-1)^{|a|} [ab|r] + (-1)^{s_a} [a|dt],  t = [b|r],
  d[a|t] = -[da|t] + [;a.n] + (-1)^{s_a} [a|dt],             t = [;n],

so d on [a|t] is d on the tail moved into the block of a, plus the head
terms, at a block's offset plus the position of t or r, or at the
position of a.n among the base elements.  Over N = k, d1 = 0 and a.1 = 0:
the word formulas above.  B(M, A, N) = M ox B(A, N) is one more block
level (see two_sided_bar), read by the same routines: with
-[da|t] = [d(sa)|t] and (-1)^{|a|} = -(-1)^{s_a}, the head terms of
[a|t] and of (m; c) have the same signs.

The Koszul dual is the linear dual of the bar, B(A)^v = Omega(A^v)
(Loday-Vallette, Algebraic Operads, 2.2), with d_e = (-1)^e (bar
d_{-e-1})^T on the chains of bar degree -e.  Its column of a chain is the
bar's row of it, and that row follows the same recursion read backwards
(_LetterTable.cocolumns): the dual's column of (h; t) in degree -f is the
tail's dual column moved into the block of h, unsigned, as (-1)^f (-1)^s
is the tail's own sign (-1)^{f-s}, plus (-1)^f times the head terms,
which sit in the columns of chains(f - 1) whose bar differential reaches
(h; t): (g; t) for each g with h a term of dg (codiff), (g; [b|t]) for
each g, b with h a term of gb (comerge, each term carrying -(-1)^{s_g}),
and, for a base element n, [;m] and [a|;m] wherever n is a term of dm or
of a.m.  Each head term is one run over the whole block.  The tables are
read by row once per bar, when the dual is first assembled, and the same
routine serves the letters and the ms.  That is the one assembly: the
bar's d leaving degree d is (-1)^{d+1} times the transpose of the dual's
columns on chains(d + 1) (_transposed, in _bar_slice).  A bar's dims are
its dual's, mirrored, and elimination clears columns from the low end of
the complex as given, so the dims (bar_homology_dims, derived_tensor_dims,
BarSlice.homology_dims and dual.DualSlice.homology_dims) are read from
the side whose low end is the smaller (_homology_dims, the one place that
chooses a side): the dual for a connective algebra, the bar for a
coconnected one, where the transpose costs less than eliminating the dual
from its larger end.  The dims of a bar whose certificate fails are read
from the complex asked for, so that its matrix check names a degree of
that complex.

One more reading of the table gives d on a single chain, or on any
segment of one (_LetterTable._segment_d): the terms of the coderivation
above, head by head.  It serves twice.  Errors: where tabling met a
failed product or a misplaced term that a column may use (`dropped`),
the bar and the dual both walk the chains in the bar's order and raise
its first error (_raise_first_error); the assembly itself keeps no
record of errors.  And d^2 = 0 is certified from it, not from the
matrices: since d is a coderivation, d^2 vanishes on the window once it
vanishes on the segments of at most three units (an m, letters, a base
element) that its chains can hold (_LetterTable.certify).  A bar that
passes is marked (CochainComplexSlice.certified_by) and its cohomology
skips the matrix check; one that fails keeps the matrix check, which
finds the failure and raises as before.  The certificate does not see
the assembly, so a sign bug there would go unseen at run time: the test
suite runs the matrix check on every certified bar and every dual it
builds.
"""

import math
from functools import cache, partial

from .exactla import (
    CochainComplexSlice, Listing, RefusalError, SparseMatrix, StructuralError, Window,
    _integral_columns,
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
    """An upper bound on the letters of a bar word whose degree lies in w,
    or None when no finite bound exists.

    Connective case: letters have shifted degree <= -1, so weight <= -lo.
    Coconnected case: shifted degrees >= g >= 1, so weight <= ceil(hi / g).
    The bars report the exact cap (_ChainEnumerator.most_letters), which
    can be one less.
    """
    try:
        kind, g = _regime(spec, w)
    except ConvergenceError:
        return None
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
    """Bar chains [a_1|..|a_w; n] by degree, as blocks.

    A chain ends in an element n of the base module `right` (a left module
    over spec; _Ground, k, for the reduced bar) and has degree
    sum(s_i) + |n|.  chains(d) lists the chains of degree d: the base
    elements of degree d, then one block per letter a (by shifted degree,
    then in listing order) holding [a|t] for every t of chains(d - s_a).
    The regime bounds the letters a chain of degree d can hold
    (`most_letters`), so the lists are finite with no cap passed.  Only the
    block structure is stored (`blocks`); the labels (`label_chains`), built
    only where a bar's basis is read, come block by block from the tails',
    and so do the reduced bar's prefix offsets (`prefixes`).  Letters and
    base elements are indexed by int in `letter` and `element` (_Labels of
    them, with their shifted degrees and degrees).

    A tail lies between its chain's degree and the base degree, max|n|
    (connective) or min|n| (coconnected), so every memo, the dual's
    columns' too (_LetterTable.cocolumns), is filled by one walk from the
    base outward (`fill`): each holds the degrees from the base out with
    no gap."""

    def __init__(self, spec, regime, right=None):
        self.spec = spec
        self.regime = regime
        self.connective = regime[0] == "connective"
        self.right = _Ground() if right is None else right
        # the base's degree bound that the regime makes binding: the top
        # (connective, letters of negative degree) or the bottom
        self.reach = self.right.max_degree if self.connective else self.right.min_degree
        # the labels base element n adds to a chain's: none for k, whose chains are words
        self.end = (lambda n: ()) if right is None else (lambda n: (self.element.labels[n],))
        self.letter = _Labels()
        self.element = _Labels()
        self.memo = {}
        self.label_memo = {}
        # one memo per diagonal d - d1, along which a word's tails move
        self.prefix_memo = {}
        # (s, letters of shift s) where there are any, in the order the walk met them
        self.lettered = []

    def letters(self, s):
        """Letters of shifted degree s, indexed, checking
        augmentation-adaptedness."""
        spec = self.spec
        labels = tuple(l for l in spec.basis(s + 1) if l != spec.unit)
        if s + 1 == 0:
            for l in labels:
                if not spec.field.is_zero(spec.aug(l)):
                    raise StructuralError(
                        f"{spec.name}: basis is not augmentation-adapted "
                        f"(aug({l!r}) != 0); re-present the algebra first")
        return tuple(self.letter(l, s) for l in labels)

    def most_letters(self, d):
        """The most letters a chain of degree d can have: max|n| - d
        (connective) or (d - min|n|) // g (coconnected), and at least 0."""
        kind, g = self.regime
        if kind == "connective":
            return max(0, self.reach - d)
        return 0 if g is None else max(0, (d - self.reach) // g)

    def fill(self, memo, d, make, *args):
        """memo[d], once memo holds every degree from the base out to d:
        make(k, *args) builds the entry of degree k from those of degrees
        between k and the base, so the missing degrees are made in order,
        from the first one memo lacks, len(memo) degrees out from the base,
        to d.  Nothing recurses once per degree, however wide the window.
        A degree beyond the base holds no chain: its entry is made, not
        stored."""
        hit = memo.get(d)
        if hit is not None:
            return hit
        step = -1 if self.connective else 1
        for k in range(self.reach + step * len(memo), d + step, step):
            memo[k] = make(k, *args)
        return memo[d] if d in memo else make(d, *args)

    def blocks(self, d):
        """(size, blocks, offset, base) of chains(d): its length, its
        nonempty blocks as (letter, shifted degree, offset), offset[letter],
        and its base elements, which come first."""
        return self.fill(self.memo, d, self._blocks)

    def _blocks(self, d):
        """`blocks(d)`, made once those of the degrees between d and the
        base are.  chains(d) may begin with the letters of shift s for
        d - base <= s < 0 (connective) or g <= s <= d - base (coconnected),
        the tails' degrees d - s reaching the base; of those shifts only
        d - base itself is new to the walk, and is scanned for letters here."""
        base = tuple(self.element(n, d) for n in self.right.basis(d))
        size, blocks, offset = len(base), [], {}
        s, g = d - self.reach, self.regime[1]
        if not (s < 0 if self.connective else g is not None and s >= g):
            return size, blocks, offset, base  # no shift fits
        letters = self.letters(s)
        if letters:
            self.lettered.append((s, letters))
        # the walk meets the shifts from 0 outward, the blocks list them increasing
        for s, letters in reversed(self.lettered) if self.connective else self.lettered:
            n = self.memo[d - s][0]
            if n:
                for a in letters:
                    blocks.append((a, s, size))
                    offset[a] = size
                    size += n
        return size, blocks, offset, base

    def prefixes(self, d1, d):
        """P_d on the words of chains(d1) (reduced bar): x ++ y is word
        P_d(x) + index(y) of chains(d) for each y of chains(d - d1), and
        P_d([a|t]) = offset[a] in chains(d) plus P_{d - s_a}(t), built block
        by block with no word built (memoized)."""
        return self.fill(self.prefix_memo.setdefault(d - d1, {}), d1, self._prefixes, d - d1)

    def _prefixes(self, d1, e):
        """`prefixes(d1, d1 + e)`, made once those of the degrees between
        d1 and the base are, on the diagonal e."""
        _, blocks, _, base = self.blocks(d1)
        offset, memo = self.blocks(d1 + e)[2], self.prefix_memo[e]
        hit = [0] * len(base)
        for a, s, _ in blocks:
            o = offset[a]
            hit += [o + q for q in memo[d1 - s]]
        return hit

    def label_chains(self, d):
        """chains(d) as tuples of labels: the letters', then end(n)."""
        return self.fill(self.label_memo, d, self._label_chains)

    def _label_chains(self, d):
        """`label_chains(d)`, made once those of the degrees between d and
        the base are."""
        _, blocks, _, base = self.blocks(d)
        out = list(map(self.end, base))
        labels = self.letter.labels
        for a, s, _ in blocks:
            out += map((labels[a],).__add__, self.label_memo[d - s])
        return tuple(out)


class _LetterTable:
    """The letters of one bar in ints, tabled once, and the dual's
    differential on its chains assembled from them block by block.

    For each letter the enumerator has listed: diff[a], the differential
    d(sa) = -s(da) of its suspension, merge[a][b], the product with letter
    b wherever [a|b] can sit inside a chain of degree in [lo, hi] (the
    chains whose differential is assembled), and act[a][n], its action on
    each listed base element n; and base_diff[n], the differential of n.
    Each is a list of (index, scalar) pairs; a merge that no such chain
    holds is None.  A product that fails (it leaves the augmentation
    ideal, or the spec raises StructuralError) is tabled as its
    StructuralError, raised only when a column uses it.  Terms on labels
    that are no listed letter or base element get indices too, so that
    they miss every basis and are reported there.  Either marks the table
    `dropped` where a column may use the entry.

    The heads h of shift s are the letters a (s = s_a) and the ms of
    B(M, A, N) (s = |m|), whose tables two_sided_bar adds with `lincomb`
    and `tabled`.  On the chains t of a head's tails the bar's d is

      d(h; t) = (dh; t) + (-1)^s (h; dt) - (-1)^s (hb; r),  t = [b|r],

    plus [;a.n] for a letter and t = [;n].  `scale_to_ints` then turns
    every tabled scalar into an int; `_segment_d` reads d on one chain or
    segment from those ints, and `certify` checks d^2 = 0 with it.  The
    table is built after the enumerator has listed every chain the bar
    holds, so that every letter and base element is indexed with its
    degree.

    The dual's columns, which the bar's matrices transpose, come from the
    tables read by row, built once on first use (`cotables`): `cocolumns`
    and one routine, _coblock, for both kinds of head.  Reading by row
    leaves out the dropped entries (see _raise_first_error).  A dual block
    whose head sits at offset 0 of the list below and has no head term is
    its tails' columns entry for entry, and holds those very dicts,
    shared with the tails' degree (_coblock).  Nothing writes into a
    matrix column once built (exactla), so the sharing is safe.
    """

    def __init__(self, spec, enum, lo, hi, size):
        self.field = spec.field
        self.enum = enum
        self.lo, self.hi = lo, hi
        self.connective = enum.connective
        self.lincombs = []
        self.comemo = {}
        # (level, shift) of B(M, A, N)'s ms as heads (see certify), set by two_sided_bar
        self.heads = None
        # the tables read by row (cotables), and whether they drop an entry (_drop)
        self.co, self.dropped = None, False
        # rows[i] is i, through the largest basis, which holds every list a
        # column lands in: one int object per row, shared by every column
        self.rows = list(range(size))
        letter, element, right, reach = enum.letter, enum.element, enum.right, enum.reach
        letters = list(zip(letter.labels, letter.degrees))
        elements = list(zip(element.labels, element.degrees))
        self.diff = [self.lincomb({m: -c for m, c in spec.diff(x).items()}, letter,
                                  s + 1, s + reach) for x, s in letters]
        self.merge = [
            [self.tabled(lambda x=x, y=y: _merge(spec, x, y), letter, sx + sy + 1, sx + sy + reach)
             if self.reaches(sx + sy + reach, hi) else None
             for y, sy in letters]
            for x, sx in letters]
        self.base_diff = [self.lincomb(right.diff(n), element, dn + 1, dn) for n, dn in elements]
        self.act = [[self.tabled(lambda x=x, n=n: right.left_act(x, n), element,
                                 sx + dn + 1, sx + dn)
                     for n, dn in elements] for x, sx in letters]
        # the letters as heads (see _segment_d, transposed)
        self.level = (letter, self.diff, self.merge)

    def reaches(self, e, top):
        """Whether a chain of degree in [lo, top] can hold a segment whose
        chains have degree at most e (connective: the other letters are
        negative) or at least e (coconnected), e the segment's shifted
        degree plus max|n| or min|n|, or |n| when it ends in n."""
        return self.lo <= e if self.connective else e <= top

    def lincomb(self, lc, index, degree, e):
        """lc as a tabled list of (index(label), scalar) pairs, its terms
        due in `degree`: where a term's label is not listed there, the
        entry is dropped at e (`_drop`), e as in `reaches`."""
        out = [(index(m), c) for m, c in lc.items()]
        if any(index.degrees[x] != degree for x, _ in out):
            self._drop(e)
        self.lincombs.append(out)
        return out

    def tabled(self, make, index, degree, e):
        """make() as a tabled lincomb, or the StructuralError it raised,
        dropped at e."""
        try:
            return self.lincomb(make(), index, degree, e)
        except StructuralError as exc:
            self._drop(e)
            return exc

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

    def certify(self):
        """Whether d^2 = 0 on every chain of a degree where it is checked
        (lo to hi - 2), read from the tabled ints of `scale_to_ints` alone.

        d is a coderivation, so d^2 is one too, and it vanishes on every
        chain once it vanishes on every segment of at most three units
        (Loday-Vallette, Algebraic Operads, 1.1 and 2.2): an optional m of
        B(M, A, N) as head (self.heads = (level, shift), shift = max|m| or
        min|m|), letters, then a base element where there is no m (no
        product joins the two, so d^2 on a segment holding both is that of
        its pieces).  Every segment that `reaches` lo or hi - 2 is listed,
        an m counting as |m| - shift and a segment with no base element as
        ending in max|n| or min|n|, and only those that reach are extended,
        as longer ones reach less.  On each, `_segment_d` is applied twice
        and the sum must be exactly zero (ints of scale D^2 over Q, reduced
        mod p over F_p).  A segment that reaches holds at most the bar's
        weight cap of letters.  Where _segment_d finds no tables (None) or
        raises a failed product, the certificate fails.

        A segment (m; word; n) is left out when n is inert: dn = 0 and
        a.n = 0 for every tabled letter a (k's unit, on a reduced bar).
        Then the only terms of _segment_d that touch n are zero, so d on
        (m; word; n) is d on (m; word) with n carried along, term by term,
        and d^2 on it is the d^2 of (m; word), which is listed whenever it
        has a unit (it reaches wherever (m; word; n) does), and is empty
        when it has none.  A failed product or a missing table met on it
        is met on (m; word) too, as a.n, the one product it lacks, is a
        tabled zero.
        """
        top, reach, p = self.hi - 2, self.enum.reach, self.field.p
        shifts = self.enum.letter.degrees
        starts = [((), 0)]
        if self.heads is not None:
            (index, mdiff, _), shift = self.heads
            starts += [((h,), s - shift) for h, s in enumerate(index.degrees[:len(mdiff)])]
        elements = [(n, en) for n, en in enumerate(self.enum.element.degrees[:len(self.base_diff)])
                    if self.base_diff[n] or any(act[n] != [] for act in self.act)]
        segments = []
        grow = [(m, (), e) for m, e in starts if self.reaches(e + reach, top)]
        for m, word, e in grow:
            units = len(m) + len(word)
            if units:
                segments.append((m, word, None))
            if units < 3:
                segments += [(m, word, n) for n, en in elements
                             if not m and self.reaches(e + en, top)]
                grow += [(m, word + (a,), e + shifts[a]) for a in range(len(self.diff))
                         if self.reaches(e + shifts[a] + reach, top)]
        d = cache(lambda seg: self._segment_d(*seg))
        try:
            for seg in segments:
                first, acc = d(seg), {}
                if first is None:
                    return False
                for term, c in first:
                    second = d(term)
                    if second is None:
                        return False
                    for t, x in second:
                        acc[t] = acc.get(t, 0) + c * x
                if any(v % p for v in acc.values()) if p else any(acc.values()):
                    return False
        except StructuralError:
            return False
        return True

    def _segment_d(self, m, word, n):
        """The terms of d on the segment (m; word; n) as (segment, int)
        pairs from the tabled ints, unsummed, head by head; m is () or (h,)
        for an m of B(M, A, N), word a tuple of letters, n a base element
        or None, all by index.  Each head (the m, then each letter) gives
        its differential and its product with the next unit (m.a, a merge,
        or a.n), with the signs of d(h; t) above, the tail carrying (-1)^s
        after each head of shift s; then dn.  A failed product raises its
        StructuralError, the leftmost first.  None where an index has no
        tables (a label that is no listed letter, m or base element) or the
        table left out a merge."""
        units, k, nl = m + word, len(m), len(self.diff)
        if (m and m[0] >= len(self.heads[0][1])) or (word and max(word) >= nl) \
                or (n is not None and n >= len(self.base_diff)):
            return None
        terms, odd = [], 0  # odd: the parity of the shifts before the unit
        for i, h in enumerate(units):
            index, diff, product = self.heads[0] if i < k else self.level
            s = index.degrees[h] % 2
            for x, c in diff[h]:
                new = units[:i] + (x,) + units[i + 1:]
                terms.append(((new[:k], new[k:], n), -c if odd else c))
            if i + 1 < len(units):
                prod = product[h][units[i + 1]]
                if prod is None:
                    return None
                if isinstance(prod, StructuralError):
                    raise prod
                for x, c in prod:
                    new = units[:i] + (x,) + units[i + 2:]
                    terms.append(((new[:k], new[k:], n), c if s != odd else -c))
            elif n is not None and i >= k:
                prod = self.act[h][n]
                if isinstance(prod, StructuralError):
                    raise prod
                for x, c in prod:
                    terms.append(((m, word[:-1], x), -c if odd else c))
            odd ^= s
        if n is not None:
            for x, c in self.base_diff[n]:
                terms.append(((m, word, x), -c if odd else c))
        return terms

    def cotables(self):
        """Build the tables read by row once, as self.co = (the letters'
        `transposed`, cobase, coact, the ms' `transposed` or None), and
        return `dropped`."""
        if self.co is None:
            heads = self.heads and self.transposed(self.heads[0])
            self.co = (self.transposed(self.level), *self._transposed_base(), heads)
        return self.dropped

    def _drop(self, e):
        """Note a failed product or a term on a label not listed in its
        degree, which the tables read by row leave out, in an entry used
        only by the chains of degree e or beyond it (as in `reaches`): the
        table is `dropped` where such a chain may have a column (degree in
        [lo, hi - 1]), and the bar may hold an error."""
        self.dropped = self.dropped or self.reaches(e, self.hi - 1)

    def transposed(self, level):
        """level's tables read by row, for `_coblock`: (degrees, codiff,
        comerge), codiff[x] listing the (g, c) with c x a term of diff[g]
        and comerge[x] the (g, b, c) with c x a term of -(-1)^{s_g}
        merge[g][b], s_g = degrees[g].  A term is kept only where x has the
        degree it must have, and a failed product is left out (`_drop`)."""
        index, diff, merge = level
        degrees, shifts, p = index.degrees, self.enum.letter.degrees, self.field.p
        codiff, comerge = [[] for _ in diff], [[] for _ in diff]
        for g, (lc, row) in enumerate(zip(diff, merge)):
            s = degrees[g]
            for x, c in lc:
                if degrees[x] == s + 1:
                    codiff[x].append((g, c))
            for b, prod in enumerate(row):
                # a failed product, or None: left out of the table
                for x, c in prod if isinstance(prod, list) else ():
                    if degrees[x] == s + shifts[b] + 1:
                        comerge[x].append((g, b, c if s % 2 else _neg(c, p)))
        return degrees, codiff, comerge

    def cocolumns(self, f):
        """The dual's columns on chains(f) (module docstring): column j
        maps rows of chains(f - 1) to nonzero ints and is (-1)^f times row
        j of the bar's differential leaving degree f - 1.  A base element's
        column holds the transposed [;dn] and [;a.n], then one _coblock per
        letter.  Valid once `cotables` has run, where no column uses a
        dropped entry.  Memoized by f (_ChainEnumerator.fill)."""
        return self.enum.fill(self.comemo, f, self._cocolumns)

    def _cocolumns(self, f):
        """`cocolumns(f)`, made once those of the degrees between f and the
        base are."""
        colevel, cobase, coact, _ = self.co
        enum, p = self.enum, self.field.p
        _, _, target, lower = enum.blocks(f - 1)
        _, blocks, _, bare = enum.blocks(f)
        odd = f % 2
        cols = []
        for n in bare:
            # [;n] is a term of [;dm] and of [;a.m]: the columns [;m] and [a|;m]
            col = {}
            for m, c in cobase[n]:
                _add_run((col,), (lower.index(m),), _neg(c, p) if odd else c, p)
            for a, m, c in coact[n]:
                at = target[a] + enum.blocks(f - 1 - enum.letter.degrees[a])[3].index(m)
                _add_run((col,), (at,), _neg(c, p) if odd else c, p)
            cols.append(col)
        for a, s, _ in blocks:
            self._coblock(cols, colevel, a, s, f, target)
        return cols

    def _transposed_base(self):
        """The base's tables read by row, as `transposed`: cobase[x] lists
        the (n, c) with c x a term of dn, coact[x] the (a, n, c) with c x a
        term of a.n, where x has the degree it must have (else `_drop`)."""
        degrees, shifts = self.enum.element.degrees, self.enum.letter.degrees
        cobase, coact = [[] for _ in self.base_diff], [[] for _ in self.base_diff]
        for n, lc in enumerate(self.base_diff):
            for x, c in lc:
                if degrees[x] == degrees[n] + 1:
                    cobase[x].append((n, c))
        for a, row in enumerate(self.act):
            for n, prod in enumerate(row):
                for x, c in prod if isinstance(prod, list) else ():
                    if degrees[x] == shifts[a] + degrees[n] + 1:
                        coact[x].append((a, n, c))
        return cobase, coact

    def _coblock(self, cols, colevel, h, s, f, target):
        """Append to cols the dual's columns of head h's block in the list
        of degree f, (h; t) for the chains t of chains(f - s), in the dual's
        signs.  colevel is `transposed`'s, for the letters or the ms, and
        target maps a head to its block's offset in the list of degree
        f - 1.  Where that offset is 0 and h has no codiff or comerge term,
        the block is the tails' columns, row for row: those dicts are
        appended, not copied.  Any other block is built fresh."""
        enum, rows, p = self.enum, self.rows, self.field.p
        degrees, codiff, comerge = colevel
        tails = self.cocolumns(f - s)
        # the tail's column, unsigned, into the block of h in the list of
        # degree f - 1, absent only when every tail column is empty
        base = target.get(h)
        if base == 0 and not codiff[h] and not comerge[h]:
            cols += tails  # the tails' columns themselves, shared
            return
        n = len(tails)
        block = _moved(tails, () if base is None else rows[base:base + enum.blocks(f - 1 - s)[0]])
        odd = f % 2
        # the columns (g; t) with h a term of dg: t keeps its position
        for g, c in codiff[h]:
            at = target[g]
            _add_run(block, rows[at:at + n], _neg(c, p) if odd else c, p)
        # the columns (g; [b|t]) with h a term of gb
        for g, b, c in comerge[h]:
            at = target[g] + enum.blocks(f - 1 - degrees[g])[2][b]
            _add_run(block, rows[at:at + n], _neg(c, p) if odd else c, p)
        cols += block


def _moved(cols, rows):
    """Copies of cols with row i renamed rows[i]."""
    out = []
    for col in cols:
        new = {}
        for i, x in col.items():
            new[rows[i]] = x
        out.append(new)
    return out


def _transposed(cols, rows, odd, p):
    """The columns of the transpose of cols, a matrix with `rows` rows,
    times (-1)^odd (mod p over F_p, where p is not None)."""
    out = [{} for _ in range(rows)]
    if not odd:
        for j, col in enumerate(cols):
            for i, x in col.items():
                out[i][j] = x
    elif p is None:
        for j, col in enumerate(cols):
            for i, x in col.items():
                out[i][j] = -x
    else:
        for j, col in enumerate(cols):
            for i, x in col.items():
                out[i][j] = p - x
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


def _neg(c, p):
    """-c, in [0, p) over F_p (p is None over Q)."""
    return -c if p is None else p - c


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
    basis maps degree to its chains, the words (tuples of letters) or
    (m, word, n), as an exactla.Listing that lists them on first read, and
    max_weight is the weight cap, the most letters a chain has."""

    def __init__(self, chains, complex_):
        self.spec = chains.spec
        self.field = chains.spec.field
        self.window = chains.window
        self.padded = complex_.window
        self.basis = complex_.basis
        self.complex = complex_
        self.max_weight = chains.cap
        self.left = chains.left
        self.right = chains.right
        self._chains = chains

    def dims(self):
        return self.complex.dims()

    def homology_dims(self):
        """Cohomology dimensions on the requested (reliable) degrees, from
        this complex or from the natively assembled dual (_homology_dims)."""
        return _homology_dims(self._chains, self)

    def __repr__(self):
        names = self.spec.name if self.left is None else \
            f"{self.left.name}, {self.spec.name}, {self.right.name}"
        return f"BarSlice({names}, window={self.window!r}, dims={self.dims()})"


class _Chains:
    """A bar before any matrix is built: its requested window, the basis of
    its padded one (degree -> labels), the int scale of its tables, its
    weight cap (the most letters a chain has), its letter table and whether
    that passed the certificate.  cocolumns(d) is the dual's columns on
    degree d, which the bar's matrices transpose: _LetterTable's for the
    reduced bar, whose chains are its basis, and per m for B(M, A, N).
    segment(label) is a chain as the (m, word, n) of indices that
    _LetterTable._segment_d reads, and label(segment) the label of one of
    its terms."""

    def __init__(self, spec, window, basis, table, scale, certified, cocolumns, segment, label,
                 left=None, right=None):
        self.spec, self.window, self.padded = spec, window, window.padded()
        self.basis, self.table, self.scale, self.certified = basis, table, scale, certified
        self.cocolumns = cocolumns
        self.segment, self.label = segment, label
        self.left, self.right = left, right
        # the chains of degree lo (connective) or hi (coconnected) hold the most letters
        self.cap = table.enum.most_letters(table.lo if table.connective else table.hi)


def _raise_first_error(chains):
    """Raise the bar's first error, if any, as complex_from_labels would:
    the chains of each degree whose differential is assembled are walked
    in listing order, _segment_d raising a chain's leftmost failed product,
    else its first term outside the next degree's basis is raised.  The
    bar and its dual call this where the table is `dropped`."""
    table, basis, padded = chains.table, chains.basis, chains.padded
    for d, labels in basis.items():
        if labels and d + 1 in padded:
            upper = set(basis[d + 1])
            for label in labels:
                for term, _ in table._segment_d(*chains.segment(label)):
                    term = chains.label(term)
                    if term not in upper:
                        raise StructuralError(
                            f"d({label!r}) has term {term!r} outside the degree {d + 1} basis")


def _bar_slice(chains):
    """The BarSlice whose differential leaving degree d is 1/scale times
    (-1)^{d+1} the transpose of cocolumns(d + 1), the dual's int columns,
    once _raise_first_error has ruled out the bar's errors.  When
    certified (its letter table's certificate passed) the complex is
    marked so, and cohomology() skips the matrix check of d^2 = 0."""
    field, basis, padded = chains.spec.field, chains.basis, chains.padded
    if chains.table.cotables():
        _raise_first_error(chains)
    diffs = {d: SparseMatrix.from_int_columns(field, len(basis[d + 1]), _transposed(
                 chains.cocolumns(d + 1), len(labels), (d + 1) % 2, field.p), chains.scale)
             for d, labels in basis.items() if labels and d + 1 in padded}
    complex_ = CochainComplexSlice(field, padded, basis, diffs)
    if chains.certified:
        complex_.certified_by = "letters"
    return BarSlice(chains, complex_)


def _cobar_slice(chains):
    """The dual's complex of a bar, assembled natively: on the mirrored
    padded window, with basis[-d] the bar's chains of degree d and the
    differential leaving -d made of cocolumns(d), which is (-1)^d times
    the transpose of the bar's leaving d - 1.  It is marked certified
    ("transpose") when the bar's letter table passed its certificate.

    The dual's columns see no error of the bar's: where the letter table
    is `dropped`, _raise_first_error raises the bar's first error, if any."""
    basis, padded = chains.basis, chains.padded
    if chains.table.cotables():
        _raise_first_error(chains)
    field = chains.spec.field
    diffs = {-d: SparseMatrix.from_int_columns(
                 field, len(basis[d - 1]), chains.cocolumns(d), chains.scale)
             for d, labels in basis.items() if labels and d - 1 in padded}
    complex_ = CochainComplexSlice(
        field, padded.mirrored(), {-d: labels for d, labels in basis.items()}, diffs)
    if chains.certified:
        complex_.certified_by = "transpose"
    return complex_


def _homology_dims(chains, bar=None, dual=None):
    """The bar's cohomology dims on its requested degrees, read from the
    bar or from its dual, whose ranks are the bar's, mirrored.  bar (a
    BarSlice) and dual (the dual's complex) are what a caller has built;
    the side read is built if it was not passed.  A certified bar is read
    from the side whose first differential is the smaller, since
    `cohomology` eliminates that one in full: the natively assembled dual
    where dim B^lo > dim B^hi (a connective algebra), the bar where
    dim B^lo < dim B^hi (a coconnected one).  On a tie, and where the
    certificate failed, the dual is read only when passed: a tie builds
    nothing more, and a failed check names the degree where d^2 != 0 in
    the grading of the complex the caller asked for."""
    basis, padded, window = chains.basis, chains.padded, chains.window
    lo, hi = len(basis[padded.lo]), len(basis[padded.hi])
    from_dual = lo > hi if chains.certified and lo != hi else dual is not None
    if from_dual:
        if dual is None:
            dual = _cobar_slice(chains)
        dims = dual.cohomology(representatives=False).dims
        return {d: dims.get(-d, 0) for d in window.degrees()}
    if bar is None:
        bar = _bar_slice(chains)
    dims = bar.complex.cohomology(representatives=False).dims
    return {d: dims.get(d, 0) for d in window.degrees()}


def _reduced(spec, window):
    """The _Chains of the reduced bar of spec over the padded window."""
    padded = window.padded()
    regime = _regime(spec, padded)
    enum = _ChainEnumerator(spec, regime)
    # blocks runs on every degree before the table is made; labels are listed on read
    basis = {d: Listing(enum.blocks(d)[0], partial(enum.label_chains, d))
             for d in padded.degrees()}
    table = _LetterTable(spec, enum, padded.lo, padded.hi, max(map(len, basis.values())))
    scale = table.scale_to_ints()
    letter = enum.letter
    return _Chains(spec, window, basis, table, scale, table.certify(), table.cocolumns,
                   lambda word: ((), tuple(map(letter.index.get, word)), None),
                   lambda seg: tuple(letter.labels[a] for a in seg[1]))


def bar_complex(spec, window):
    """Materialize the reduced bar complex of spec over the padded window;
    d^2 = 0 is certified from its letter table, or else checked on its
    matrices when its cohomology is taken.

    Every chain of each degree of the padded window is listed; inputs
    with no finite weight bound are refused, naming the offending
    generator degrees.
    """
    return _bar_slice(_reduced(spec, window))


def bar_homology_dims(spec, window):
    """Bar cohomology dimensions on the requested degrees, read from the
    natively assembled dual or from the bar (_homology_dims)."""
    return _homology_dims(_reduced(spec, window))


def dual_complex(spec, window):
    """(complex, chains) of the Koszul dual of spec on window: the dual of
    the reduced bar on the mirrored window, assembled natively
    (_cobar_slice) on window.padded(), its labels the bar's words, and
    that bar's _Chains."""
    chains = _reduced(spec, window.mirrored())
    return _cobar_slice(chains), chains


# ---------------------------------------------------------------------------
# two-sided bar


def _two_sided(left, spec, right, window):
    """The _Chains of B(left, spec, right) over the padded window (see
    two_sided_bar)."""
    padded = window.padded()
    regime = _regime(spec, padded)
    connective = regime[0] == "connective"
    bound = "max_degree" if connective else "min_degree"
    if getattr(left, bound) is None or getattr(right, bound) is None:
        raise ConvergenceError(
            f"two-sided bar over a {regime[0]} algebra needs modules bounded "
            f"{'above' if connective else 'below'}", [])
    # the chains of degree d - |m| reach down to lo (connective: letters
    # have negative degree) or up to hi (coconnected)
    lo = padded.lo - (left.max_degree if connective else 0)
    hi = padded.hi - (0 if connective else left.min_degree)
    if not connective:  # the smallest letter degree, up to the largest a chain can hold
        regime = _regime(spec, Window(padded.lo, max(padded.hi, hi - right.min_degree)))
    enum = _ChainEnumerator(spec, regime, right)

    # degree d holds the chains of degree d - |m| once per m, and the module
    # bounds make the range of |m| finite.  offsets[d][m] is the offset of
    # m's block, from the blocks' sizes
    lindex = _Labels()
    basis, offsets = {}, {}

    def labels(d):
        """The labels (m, word, n) of degree d, block by block."""
        return tuple((lindex.labels[mi], c[:-1], c[-1]) for mi in offsets[d]
                     for c in enum.label_chains(d - lindex.degrees[mi]))

    for d in padded.degrees():
        size, offsets[d] = 0, {}
        for dm in (range(d - right.max_degree, left.max_degree + 1) if connective
                   else range(left.min_degree, d - right.min_degree + 1)):
            ms = left.basis(dm)
            n = enum.blocks(d - dm)[0] if ms else 0
            for m in ms if n else ():
                offsets[d][lindex(m, dm)] = size
                size += n
        basis[d] = Listing(size, partial(labels, d))

    table = _LetterTable(spec, enum, lo, hi, max(map(len, basis.values())))
    # the ms as heads (see _LetterTable): dm and m.a, an m counting
    # as |m| - shift in `reaches`.  ms is a copy, as lincomb indexes terms
    # outside M's basis
    letter, element = enum.letter, enum.element
    shift, reach = left.max_degree if connective else left.min_degree, enum.reach
    ms = list(zip(lindex.labels, lindex.degrees))
    letters = list(zip(letter.labels, letter.degrees))[:len(table.diff)]
    level = (lindex, [table.lincomb(left.diff(m), lindex, dm + 1, dm - shift + reach)
                      for m, dm in ms],
             [[table.tabled(lambda m=m, x=x: left.right_act(m, x), lindex,
                            dm + sx + 1, dm + sx - shift + reach) for x, sx in letters]
              for m, dm in ms])
    scale = table.scale_to_ints()
    table.heads = (level, shift)

    def cocolumns(d):
        """The dual's columns of degree d, one _coblock per m."""
        cols = []
        for mi in offsets[d]:
            table._coblock(cols, table.co[3], mi, lindex.degrees[mi], d, offsets[d - 1])
        return cols

    def segment(label):
        m, word, n = label
        return (lindex.index[m],), tuple(map(letter.index.get, word)), element.index[n]

    def label(seg):
        (m,), word, n = seg
        return lindex.labels[m], tuple(letter.labels[a] for a in word), element.labels[n]

    return _Chains(spec, window, basis, table, scale, table.certify(), cocolumns,
                   segment, label, left, right)


def two_sided_bar(left, spec, right, window):
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
    (m, (a_1, .., a_w), n).  d^2 = 0 is certified from the letter and
    module tables, or else checked on the matrices when its cohomology is
    taken.
    """
    return _bar_slice(_two_sided(left, spec, right, window))


def derived_tensor_dims(left, spec, right, window):
    """Cohomology dimensions of B(left, spec, right) on the requested window
    (this computes the derived tensor product of the two modules over spec),
    read from its natively assembled dual or from the bar (_homology_dims)."""
    return _homology_dims(_two_sided(left, spec, right, window))
