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
tabled once per bar with their degree parities, differentials and
pairwise merges (the module differentials and actions too, for
B(M, A, N)); words are enumerated as tuples of letter indices.  Over Q
every structure constant is scaled by one common denominator D, and since
each term of the differential carries exactly one of them, the
differential is 1/D times an integer matrix, whose rank, kernel and d^2
are those of the differential.  Over F_p, D = 1 and the ints are reduced
mod p.
"""

import math

from .exactla import RefusalError, StructuralError, _integral_columns, complex_from_labels


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
    """Deterministic enumeration of bar words by (degree, weight cap).

    Words are tuples of letter indices into `letter` (a _Labels of the
    letters, with their shifted degrees); label_words gives the same words
    as tuples of labels, converted once."""

    def __init__(self, spec, regime):
        self.spec = spec
        self.regime = regime
        self.letter = _Labels()
        self.letter_cache = {}
        self.memo = {}
        self.label_memo = {}

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

    def words(self, d, cap):
        kind, g = self.regime
        # no word of degree d has more than -d letters (connective) or
        # d // g (coconnected), so every larger cap lists the same words
        if kind == "connective":
            cap = min(cap, max(0, -d))
        elif g is not None:
            cap = min(cap, max(0, d // g))
        key = (d, cap)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        out = [()] if d == 0 else []
        if cap >= 1:
            if kind == "connective":
                srange = range(d, 0)
            elif g is None:
                srange = range(0)
            else:
                srange = range(g, d + 1)
            for s in srange:
                for letter in self.letters(s):
                    for rest in self.words(d - s, cap - 1):
                        out.append((letter,) + rest)
        result = tuple(out)
        self.memo[key] = result
        return result

    def label_words(self, d, cap):
        key = (d, cap)
        hit = self.label_memo.get(key)
        if hit is None:
            hit = self.label_memo[key] = tuple(map(self.label_word, self.words(d, cap)))
        return hit

    def label_word(self, word):
        return tuple(map(self.letter.labels.__getitem__, word))


class _LetterTable:
    """The letters of one bar in ints, tabled once.

    For each letter the enumerator has listed: odd[a], the parity of its
    degree; diff[a], its differential; and merge[a][b], the product with
    letter b wherever [a|b] can sit inside a word of degree in [lo, hi]
    (the words whose differential is assembled), each a list of (letter,
    scalar) pairs.  A product that fails (it leaves the augmentation ideal,
    or the spec raises StructuralError) is tabled as None and its error is
    raised only when a column uses it.  Terms on labels that are no listed
    letter get indices too, so that they miss every basis and are reported
    there.

    The module tables of a two-sided bar are added with `lincomb` and
    `tabled`; `scale_to_ints` then turns every tabled scalar into an int.
    """

    def __init__(self, spec, enum, lo, hi):
        self.field = spec.field
        self.failures = {}
        self.lincombs = []
        letter = enum.letter
        letters = list(zip(letter.labels, letter.degrees))
        self.odd = [(s + 1) % 2 for _, s in letters]
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

    def terms(self, word, e):
        """The bar differential of word (letter indices) as (word, int)
        terms, and the parity of the degree up to its end; e is the parity
        of whatever precedes the first letter (0 in the reduced bar, |m| in
        B(M, A, N)).  Terms follow the module docstring's formula."""
        out = []
        diff, merge, odd = self.diff, self.merge, self.odd
        last = len(word) - 1
        for i, a in enumerate(word):
            da = diff[a]
            if da:
                # -(-1)^{e_i} [..|da_i|..]
                head, tail = word[:i], word[i + 1:]
                for m, c in da:
                    out.append((head + (m,) + tail, c if e else -c))
            if i < last:
                prod = merge[a][word[i + 1]]
                if prod:
                    # +(-1)^{e_i + |a_i|} [..|a_i a_{i+1}|..]
                    head, tail = word[:i], word[i + 2:]
                    flip = e ^ odd[a]
                    for m, c in prod:
                        out.append((head + (m,) + tail, -c if flip else c))
                elif prod is None:
                    raise self.failures[a, word[i + 1]]
            e ^= 1 ^ odd[a]
        return out, e


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
    keys = {d: enum.words(d, cap) for d in padded.degrees()}
    basis = {d: enum.label_words(d, cap) for d in padded.degrees()}
    table = _LetterTable(spec, enum, padded.lo, padded.hi)
    scale = table.scale_to_ints()
    complex_ = complex_from_labels(spec.field, padded, basis,
                                   lambda word: table.terms(word, 0)[0], keys=keys,
                                   label_of=enum.label_word, scale=scale)
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
    # module bounds make each loop finite.
    keys, basis = {}, {}
    for d in padded.degrees():
        ints, labels = [], []
        if kind == "connective":
            e_range = range(d - left.max_degree - right.max_degree, 1)
        else:
            e_range = range(0, d - left.min_degree - right.min_degree + 1)
        for e in e_range:
            words = enum.words(e, cap)
            if not words:
                continue
            label_words = enum.label_words(e, cap)
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
                for m in ms:
                    mi = lindex(m, dm)
                    for w, word in zip(words, label_words):
                        for ni, n in zip(nis, ns):
                            ints.append((mi, w, ni))
                            labels.append((m, word, n))
        keys[d], basis[d] = ints, labels

    if kind == "connective":
        e_lo, e_hi = padded.lo - left.max_degree - right.max_degree, 0
    else:
        e_lo, e_hi = 0, padded.hi - left.min_degree - right.min_degree
    table = _LetterTable(spec, enum, e_lo, e_hi)
    letters = list(enumerate(enum.letter.labels[:len(table.odd)]))
    ms = list(enumerate(zip(lindex.labels, lindex.degrees)))
    ns = list(enumerate(rindex.labels))
    lodd = [dm % 2 for _, (_, dm) in ms]
    ldiff = [table.lincomb(left.diff(m), lindex) for _, (m, _) in ms]
    rdiff = [table.lincomb(right.diff(n), rindex) for _, n in ns]
    ract = [[table.tabled(("m.a", mi, a), lambda m=m, x=x: left.right_act(m, x), lindex)
             for a, x in letters] for mi, (m, _) in ms]
    lact = [[table.tabled(("a.n", a, ni), lambda x=x, n=n: right.left_act(x, n), rindex)
             for ni, n in ns] for a, x in letters]
    scale = table.scale_to_ints()
    odd = table.odd

    def boundary(key):
        """d(m; a_1..a_w; n): the module differentials and the outer merges
        around the word's own terms."""
        mi, word, ni = key
        out = [((mm, word, ni), c) for mm, c in ldiff[mi]]
        terms, p_last = table.terms(word, lodd[mi])
        out += [((mi, ww, ni), c) for ww, c in terms]
        # (-1)^{P_w} (m; A; dn)
        out += [((mi, word, nn), -c if p_last else c) for nn, c in rdiff[ni]]
        if word:
            # -(-1)^{|m|} (m.a_1; a_2..; n)
            prod = ract[mi][word[0]]
            if prod is None:
                raise table.failures["m.a", mi, word[0]]
            rest = word[1:]
            out += [((mm, rest, ni), c if lodd[mi] else -c) for mm, c in prod]
            # +(-1)^{P_{w-1}} (m; a_1..a_{w-1}; a_w.n)
            prod = lact[word[-1]][ni]
            if prod is None:
                raise table.failures["a.n", word[-1], ni]
            rest, p_prev = word[:-1], p_last ^ 1 ^ odd[word[-1]]
            out += [((mi, rest, nn), -c if p_prev else c) for nn, c in prod]
        return out

    def label_of(key):
        mi, word, ni = key
        return lindex.labels[mi], enum.label_word(word), rindex.labels[ni]

    complex_ = complex_from_labels(spec.field, padded, basis, boundary, keys=keys,
                                   label_of=label_of, scale=scale)
    return BarSlice(spec, window, complex_, cap, left, right)


def derived_tensor_dims(left, spec, right, window, max_weight=None):
    """Cohomology dimensions of B(left, spec, right) on the requested window
    (this computes the derived tensor product of the two modules over spec)."""
    return two_sided_bar(left, spec, right, window, max_weight=max_weight).homology_dims()
