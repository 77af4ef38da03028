"""Reduced bar constructions over a degree window.

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

No term of the differential is built as a word and looked up.  The
words of degree d with at most c letters come in one block per first
letter a, and the block of a lists [a|t] for the words t of degree
d - s_a with at most c - 1 letters (s_a = |a| - 1), in their order; a
word's position is its block's offset plus its tail's position.  The
differential is a coderivation,

  d[a|t] = -[da|t] + (-1)^{|a|} [ab|r] + (-1)^{s_a} [a|dt],  t = [b|r],

so the column of [a|t] is the tail's column moved into the block of a,
plus the head terms, whose rows are a block's offset plus the position of
t or r.  Each list's columns are built once, from its tails' columns.
"""

import math

from .exactla import (
    CochainComplexSlice, RefusalError, SparseMatrix, StructuralError, _integral_columns,
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


class _WordEnumerator:
    """Bar words by (degree, weight cap), as blocks.

    words(d, cap) lists the words of degree d with at most cap letters: the
    empty word when d == 0, then one block per letter a (by shifted degree,
    then in listing order) holding [a|t] for every t of words(d - s_a,
    cap - 1).  Only the block structure is stored (`blocks`); the labels
    (`label_words`), the positions of the same words in a list with a larger
    cap (`positions`) and those of each word without its last letter
    (`prefixes`) are built block by block from the tails'.  Letters are
    indexed by int in `letter` (a _Labels of them, with their shifted
    degrees)."""

    def __init__(self, spec, regime):
        self.spec = spec
        self.regime = regime
        self.letter = _Labels()
        self.letter_cache = {}
        self.memo = {}
        self.label_memo = {}
        self.position_memo = {}
        self.prefix_memo = {}

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
        """cap lowered to the most letters a word of degree d can have:
        -d (connective) or d // g (coconnected); every larger cap lists the
        same words.  A word [a|t] of degree d has one letter more than t, so
        the clamp at d, less one, is at least the clamp at d - s_a: the
        block of a is words(d - s_a, cap - 1) whatever the clamp."""
        kind, g = self.regime
        if kind == "connective":
            return min(cap, max(0, -d))
        return 0 if g is None else min(cap, max(0, d // g))

    def blocks(self, d, cap):
        """(size, blocks, offset) of words(d, cap): its length, its nonempty
        blocks as (letter, shifted degree, offset), and offset[letter]."""
        cap = self.clamp(d, cap)
        key = (d, cap)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        size = 1 if d == 0 else 0
        blocks, offset = [], {}
        if cap >= 1:
            kind, g = self.regime
            if kind == "connective":
                srange = range(d, 0)
            elif g is None:
                srange = range(0)
            else:
                srange = range(g, d + 1)
            for s in srange:
                for a in self.letters(s):
                    n = self.blocks(d - s, cap - 1)[0]
                    if n:
                        blocks.append((a, s, size))
                        offset[a] = size
                        size += n
        hit = self.memo[key] = (size, blocks, offset)
        return hit

    def label_words(self, d, cap):
        """words(d, cap) as tuples of labels."""
        cap = self.clamp(d, cap)
        key = (d, cap)
        hit = self.label_memo.get(key)
        if hit is None:
            out = [()] if d == 0 else []
            labels = self.letter.labels
            for a, s, _ in self.blocks(d, cap)[1]:
                out += map((labels[a],).__add__, self.label_words(d - s, cap - 1))
            hit = self.label_memo[key] = tuple(out)
        return hit

    def positions(self, d, small, big):
        """The position in words(d, big) of each word of words(d, small),
        small <= big, or None when the clamps make them one list."""
        small, big = self.clamp(d, small), self.clamp(d, big)
        if small == big:
            return None
        key = (d, small, big)
        hit = self.position_memo.get(key)
        if hit is None:
            hit = [0] if d == 0 else []
            offset = self.blocks(d, big)[2]
            for a, s, _ in self.blocks(d, small)[1]:
                base = offset[a]
                inner = self.positions(d - s, small - 1, big - 1)
                if inner is None:
                    inner = range(self.blocks(d - s, small - 1)[0])
                hit += [base + i for i in inner]
            self.position_memo[key] = hit
        return hit

    def prefixes(self, d, cap):
        """For each word of words(d, cap): None for the empty word, else
        (z, i) with z its last letter and i the position of the word
        without z in words(d - s_z, cap)."""
        cap = self.clamp(d, cap)
        key = (d, cap)
        hit = self.prefix_memo.get(key)
        if hit is None:
            hit = [None] if d == 0 else []
            degrees = self.letter.degrees
            for a, s, _ in self.blocks(d, cap)[1]:
                if d == s:  # the block is [a] alone
                    hit.append((a, 0))
                    continue
                offset = {}
                for z, i in self.prefixes(d - s, cap - 1):
                    base = offset.get(z)
                    if base is None:
                        base = offset[z] = self.blocks(d - degrees[z], cap)[2][a]
                    hit.append((z, base + i))
            self.prefix_memo[key] = hit
        return hit


class _LetterTable:
    """The letters of one bar in ints, tabled once, and the bar
    differential assembled from them block by block.

    For each letter the enumerator has listed: diff[a], its differential,
    and merge[a][b], the product with letter b wherever [a|b] can sit inside
    a word of degree in [lo, hi] (the words whose differential is
    assembled), each a list of (letter, scalar) pairs.  A product that fails
    (it leaves the augmentation ideal, or the spec raises StructuralError)
    is tabled as None and its error is raised only when a column uses it.
    Terms on labels that are no listed letter get indices too, so that they
    miss every basis and are reported there.

    The module tables of a two-sided bar are added with `lincomb` and
    `tabled`; `scale_to_ints` then turns every tabled scalar into an int.
    The table is built after the enumerator has listed every word the bar
    holds, so that every letter is indexed with its degree.
    """

    def __init__(self, spec, enum, lo, hi):
        self.field = spec.field
        self.enum = enum
        self.failures = {}
        self.lincombs = []
        self.memo = {}
        self.rows = []  # rows[i] is i: one int object per row, shared by every column
        letter = enum.letter
        letters = list(zip(letter.labels, letter.degrees))
        self.diff = [self.lincomb(spec.diff(x), letter) for x, _ in letters]
        # [a|b] sits in words of degree <= sa + sb (connective: the other
        # letters are negative), or >= sa + sb (coconnected)
        connective = enum.regime[0] == "connective"
        self.merge = [
            [self.tabled((a, b), lambda x=x, y=y: _merge(spec, x, y), letter)
             if (lo <= sx + sy if connective else sx + sy <= hi) else []
             for b, (y, sy) in enumerate(letters)]
            for a, (x, sx) in enumerate(letters)]

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
        """The differential of words(d, cap) as (columns, errors).

        columns[j] maps rows of words(d + 1, cap) to nonzero ints (in
        [0, p) over F_p) and follows the module docstring's recursion: the
        tail's column, moved into the block of the first letter a, plus the
        head terms -[da|t] and (-1)^{|a|} [ab|r], summed into it.
        errors[j] = (failure, term) for a column that uses a failing merge
        (failure, its leftmost one's StructuralError) or has a term outside
        words(d + 1, cap) (term, the first one's labels); a failure is
        raised before any term is looked up, as the letters are read left
        to right.  Memoized by the clamps of cap at d and at d + 1, which
        fix both lists.
        """
        enum = self.enum
        key = (d, enum.clamp(d, cap), enum.clamp(d + 1, cap))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        size, _, target = enum.blocks(d + 1, cap)
        rows = self.rows
        if len(rows) < size:
            rows += range(len(rows), size)
        p = self.field.p
        degrees, labels = enum.letter.degrees, enum.letter.labels
        cols = [{}] if d == 0 else []
        errors = {}
        for a, s, off in enum.blocks(d, cap)[1]:
            tails, tail_errors = self.columns(d - s, cap - 1)
            # (-1)^{s_a} [a|dt]: the tail's target is the block of a in
            # words(d + 1, cap), absent only when every tail column is empty
            base = target.get(a)
            block = _moved(tails, () if base is None else
                           rows[base:base + enum.blocks(d + 1 - s, cap - 1)[0]], s % 2, p)
            head = {}  # tail position -> (failure, term outside the target)
            # -[da|t]: t keeps its position, in the block of each letter of da
            for m, c in self.diff[a]:
                at = target.get(m) if degrees[m] == s + 1 else None
                if at is None:
                    for i, t in enumerate(enum.label_words(d - s, cap - 1)):
                        head.setdefault(i, (None, (labels[m],) + t))
                    continue
                _add_run(block, rows[at:at + len(block)], -c if p is None else p - c, p)
            # (-1)^{|a|} [ab|r], for t = [b|r]: one run per block b of the tails
            for b, sb, off_b in (enum.blocks(d - s, cap - 1)[1] if d != s else ()):
                prod = self.merge[a][b]
                n = enum.blocks(d - s - sb, cap - 2)[0]
                if not prod:
                    if prod is None:
                        for i in range(off_b, off_b + n):
                            head[i] = (self.failures[a, b], head.get(i, (None, None))[1])
                    continue
                # the merge drops a letter: r's position among cap - 1 letters
                moved = enum.positions(d - s - sb, cap - 2, cap - 1)
                for m, c in prod:
                    at = target.get(m) if degrees[m] == s + sb + 1 else None
                    if at is None:
                        for i, r in enumerate(enum.label_words(d - s - sb, cap - 2), off_b):
                            f, term = head.get(i, (None, None))
                            head[i] = (f, (labels[m],) + r if term is None else term)
                        continue
                    _add_run(block[off_b:off_b + n],
                             rows[at:at + n] if moved is None else [rows[at + i] for i in moved],
                             c if s % 2 else (-c if p is None else p - c), p)
            if head or tail_errors:
                first = (labels[a],)
                for i in head.keys() | tail_errors.keys():
                    failure, term = head.get(i, (None, None))
                    tail_failure, tail_term = tail_errors.get(i, (None, None))
                    if term is None and tail_term is not None:
                        term = first + tail_term
                    errors[off + i] = (failure or tail_failure, term)
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


def _first_error(errors, labels, d):
    """The StructuralError of the first column with errors, as
    complex_from_labels would raise it."""
    j = min(errors)
    failure, term = errors[j]
    if failure is not None:
        return failure
    return StructuralError(
        f"d({labels[j]!r}) has term {term!r} outside the degree {d + 1} basis")


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


def bar_complex(spec, window, max_weight=None):
    """Materialize the reduced bar complex of spec over the padded window;
    d^2 = 0 is checked when its cohomology is taken.

    max_weight overrides the computed cap (expert use: a smaller cap computes
    a filtration stage, a larger one changes nothing).  Refuses inputs with
    no finite weight bound, naming the offending generator degrees.
    """
    padded = window.padded(1)
    regime = _regime(spec, padded)
    cap = _weight_cap(regime, padded) if max_weight is None else max_weight
    if cap < 0:
        raise RefusalError(f"negative weight cap {cap}")

    enum = _WordEnumerator(spec, regime)
    basis = {d: enum.label_words(d, cap) for d in padded.degrees()}
    table = _LetterTable(spec, enum, padded.lo, padded.hi)
    scale = table.scale_to_ints()
    diffs = {}
    for d, words in basis.items():
        if words and d + 1 in padded:
            cols, errors = table.columns(d, cap)
            if errors:
                raise _first_error(errors, words, d)
            diffs[d] = SparseMatrix.from_int_columns(spec.field, len(basis[d + 1]), cols, scale)
    complex_ = CochainComplexSlice(spec.field, padded, basis, diffs)
    return BarSlice(spec, window, complex_, cap)


def bar_homology_dims(spec, window, max_weight=None):
    """Bar cohomology dimensions on the requested degrees."""
    return bar_complex(spec, window, max_weight=max_weight).homology_dims()


# ---------------------------------------------------------------------------
# two-sided bar


def two_sided_bar(left, spec, right, window, max_weight=None):
    """Materialize B(left, spec, right) over the padded window.

    left must be a right module over spec (an object with basis/degree/diff/
    right_act and degree bounds), right a left module (left_act).  The
    differential combines the internal differentials, the bar merges and the
    two outer merges m.a_1 and a_w.n; d^2 = 0 is checked when its cohomology
    is taken.
    """
    padded = window.padded(1)
    regime = _regime(spec, padded)
    kind, g = regime

    if kind == "connective":
        if left.max_degree is None or right.max_degree is None:
            raise ConvergenceError(
                "two-sided bar over a connective algebra needs modules bounded above",
                [])
        cap = max(0, left.max_degree + right.max_degree - padded.lo)
    else:
        if left.min_degree is None or right.min_degree is None:
            raise ConvergenceError(
                "two-sided bar over a coconnected algebra needs modules bounded below",
                [])
        if g is None:
            cap = 0
        else:
            cap = max(0, (padded.hi - left.min_degree - right.min_degree) // g)
    if max_weight is not None:
        cap = max_weight

    enum = _WordEnumerator(spec, regime)
    lindex, rindex = _Labels(), _Labels()

    # At total degree d the word degree e, the M degree dm and the N degree
    # dn satisfy dm + e + dn = d; the regime pins the sign of e and the
    # module bounds make each loop finite.  Degree d lists one block per
    # (e, dm), m by m, then word by word, then n by n: where[d, e, dm] is
    # the block's offset, the positions of its m's and n's and their counts.
    basis, blocks, where = {}, {}, {}
    for d in padded.degrees():
        labels, blocks[d] = [], []
        if kind == "connective":
            e_range = range(d - left.max_degree - right.max_degree, 1)
        else:
            e_range = range(0, d - left.min_degree - right.min_degree + 1)
        for e in e_range:
            nw = enum.blocks(e, cap)[0]
            if not nw:
                continue
            words = enum.label_words(e, cap)
            if kind == "connective":
                dm_range = range(d - e - right.max_degree, left.max_degree + 1)
            else:
                dm_range = range(left.min_degree, d - e - right.min_degree + 1)
            for dm in dm_range:
                ms = left.basis(dm)
                if not ms:
                    continue
                ns = right.basis(d - e - dm)
                if not ns:
                    continue
                nis = [rindex(n, d - e - dm) for n in ns]
                mis = [lindex(m, dm) for m in ms]
                where[d, e, dm] = (len(labels), dict(zip(mis, range(len(mis)))),
                                   dict(zip(nis, range(len(nis)))), nw, len(nis))
                blocks[d].append((e, dm, mis, nis))
                labels += [(m, w, n) for m in ms for w in words for n in ns]
        basis[d] = labels

    if kind == "connective":
        e_lo, e_hi = padded.lo - left.max_degree - right.max_degree, 0
    else:
        e_lo, e_hi = 0, padded.hi - left.min_degree - right.min_degree
    table = _LetterTable(spec, enum, e_lo, e_hi)
    letters = list(enumerate(enum.letter.labels[:len(table.diff)]))
    ms = list(enumerate(lindex.labels))
    ns = list(enumerate(rindex.labels))
    ldiff = [table.lincomb(left.diff(m), lindex) for _, m in ms]
    rdiff = [table.lincomb(right.diff(n), rindex) for _, n in ns]
    ract = [[table.tabled(("m.a", mi, a), lambda m=m, x=x: left.right_act(m, x), lindex)
             for a, x in letters] for mi, m in ms]
    lact = [[table.tabled(("a.n", a, ni), lambda x=x, n=n: right.left_act(x, n), rindex)
             for ni, n in ns] for a, x in letters]
    scale = table.scale_to_ints()
    p = spec.field.p
    degrees = enum.letter.degrees

    def neg(c):
        return -c if p is None else p - c

    def put(extra, missing, c, d, e, dm, mi, w, ni):
        """Add (row, c) to extra for (m, word w of words(e, cap), n) in the
        degree-d basis, or its labels to missing when it is not there."""
        hit = where.get((d, e, dm))
        if hit is not None:
            base, mpos, npos, nw, nn = hit
            i, j = mpos.get(mi), npos.get(ni)
            if i is not None and j is not None:
                extra.append((base + (i * nw + w) * nn + j, c))
                return
        missing.append((lindex.labels[mi], enum.label_words(e, cap)[w], rindex.labels[ni]))

    diffs = {}
    for d, labels in basis.items():
        if not labels or d + 1 not in padded:
            continue
        cols, errors = [], {}
        for e, dm, mis, nis in blocks[d]:
            wcols, werrors = table.columns(e, cap)
            # each word's first letter a and the position of its tail in
            # words(e - s_a, cap); its last letter z and the position of
            # the rest in words(e - s_z, cap)
            firsts = [None] if e == 0 else []
            for a, s, _ in enum.blocks(e, cap)[1]:
                moved = enum.positions(e - s, cap - 1, cap)
                firsts += [(a, s, i) for i in moved or range(enum.blocks(e - s, cap - 1)[0])]
            lasts = enum.prefixes(e, cap)
            # (m; dA; n) sits in the block (e + 1, dm) of degree d + 1
            up = where.get((d + 1, e + 1, dm))
            p_last = (dm + e) % 2
            for mi in mis:
                for w, wcol in enumerate(wcols):
                    word_failure, word_term = werrors.get(w, (None, None))
                    for ni in nis:
                        # the terms beside the word's own as (row, int), and
                        # the labels of those outside the next basis, in
                        # the order of the docstring's formula
                        failure, extra, missing = word_failure, [], []
                        # (dm; A; n)
                        for mm, c in ldiff[mi]:
                            put(extra, missing, c, d + 1, e, dm + 1, mm, w, ni)
                        if word_term is not None:
                            missing.append((lindex.labels[mi], word_term, rindex.labels[ni]))
                        # (-1)^{P_w} (m; A; dn)
                        for nn, c in rdiff[ni]:
                            put(extra, missing, neg(c) if p_last else c, d + 1, e, dm, mi, w, nn)
                        if firsts[w] is not None:
                            # -(-1)^{|m|} (m.a_1; a_2..; n)
                            a, s, i = firsts[w]
                            prod = ract[mi][a]
                            if prod is None:
                                failure = failure or table.failures["m.a", mi, a]
                            for mm, c in prod or ():
                                put(extra, missing, c if dm % 2 else neg(c),
                                    d + 1, e - s, dm + s + 1, mm, i, ni)
                            # +(-1)^{P_{w-1}} (m; a_1..a_{w-1}; a_w.n)
                            z, i = lasts[w]
                            prod = lact[z][ni]
                            if prod is None:
                                failure = failure or table.failures["a.n", z, ni]
                            p_prev = p_last ^ degrees[z] % 2
                            for nn, c in prod or ():
                                put(extra, missing, neg(c) if p_prev else c,
                                    d + 1, e - degrees[z], dm, mi, i, nn)
                        if failure is not None or missing:
                            errors[len(cols)] = (failure, missing[0] if missing else None)
                        col = {}
                        if wcol:  # (-1)^{|m|} (m; dA; n), in the block (e + 1, dm)
                            base, mpos, npos, nw, nn = up
                            at = base + mpos[mi] * nw * nn + npos[ni]
                            col = {at + r * nn: neg(x) if dm % 2 else x for r, x in wcol.items()}
                        for at, c in extra:
                            _add_run((col,), (at,), c, p)
                        cols.append(col)
        if errors:
            raise _first_error(errors, labels, d)
        diffs[d] = SparseMatrix.from_int_columns(spec.field, len(basis[d + 1]), cols, scale)
    complex_ = CochainComplexSlice(spec.field, padded, basis, diffs)
    return BarSlice(spec, window, complex_, cap, left, right)


def derived_tensor_dims(left, spec, right, window, max_weight=None):
    """Cohomology dimensions of B(left, spec, right) on the requested window
    (this computes the derived tensor product of the two modules over spec)."""
    return two_sided_bar(left, spec, right, window, max_weight=max_weight).homology_dims()
