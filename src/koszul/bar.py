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
"""

import math

from .exactla import RefusalError, StructuralError, complex_from_labels


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


class _WordEnumerator:
    """Deterministic enumeration of bar words by (degree, weight cap)."""

    def __init__(self, spec, regime):
        self.spec = spec
        self.regime = regime
        self.letter_cache = {}
        self.memo = {}

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
            self.letter_cache[s] = labels
        return self.letter_cache[s]

    def words(self, d, cap):
        key = (d, cap)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        out = [()] if d == 0 else []
        if cap >= 1:
            kind, g = self.regime
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


class BarSlice:
    """The reduced bar complex of a spec, materialized on a window.

    The requested window is padded by one degree on each side before
    materializing, so cohomology is reliable on every requested degree.
    basis maps degree to the tuple of words (tuples of letters)."""

    def __init__(self, spec, window, complex_, max_weight):
        self.spec = spec
        self.field = spec.field
        self.window = window
        self.padded = complex_.window
        self.basis = complex_.basis
        self.complex = complex_
        self.max_weight = max_weight

    def dims(self):
        return {d: len(ws) for d, ws in sorted(self.basis.items())}

    def homology_dims(self):
        """Cohomology dimensions on the requested (reliable) degrees."""
        rep = self.complex.cohomology(representatives=False)
        return {d: rep.dims.get(d, 0) for d in self.window.degrees()}

    def __repr__(self):
        return f"BarSlice({self.spec.name}, window={self.window!r}, dims={self.dims()})"


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
    basis = {d: enum.words(d, cap) for d in padded.degrees()}
    complex_ = complex_from_labels(
        spec.field, padded, basis, lambda word: _word_terms(spec, word, 0)[0])
    return BarSlice(spec, window, complex_, cap)


def _word_terms(spec, word, e):
    """The internal-differential and merge terms of the bar differential of
    `word`, as a list of (word, scalar) pairs, and the degree of everything
    up to the end of the word.  e is the degree of whatever precedes the
    first letter (0 in the reduced bar, |m| in B(M, A, N))."""
    field = spec.field
    one = field.one
    minus = field.neg(one)
    terms = []
    w = len(word)
    for i, a in enumerate(word):
        deg = spec.degree(a)
        da = spec.diff(a)
        if da:
            # -(-1)^{e_i} [..|da_i|..]
            sign = minus if e % 2 == 0 else one
            for m, c in da.items():
                terms.append((word[:i] + (m,) + word[i + 1:], field.mul(sign, c)))
        if i + 1 < w:
            prod = spec.mult(a, word[i + 1])
            if prod:
                # +(-1)^{e_i + |a_i|} [..|a_i a_{i+1}|..]
                sign = one if (e + deg) % 2 == 0 else minus
                for m, c in prod.items():
                    if m == spec.unit:
                        raise StructuralError(
                            f"merge {a!r}*{word[i + 1]!r} leaves the augmentation ideal")
                    terms.append((word[:i] + (m,) + word[i + 2:], field.mul(sign, c)))
        e += deg - 1
    return terms, e


def bar_homology_dims(spec, window, max_weight=None):
    """Bar cohomology dimensions on the requested degrees."""
    return bar_complex(spec, window, max_weight=max_weight).homology_dims()


# ---------------------------------------------------------------------------
# two-sided bar


class TwoSidedBarSlice:
    """B(M, A, N) on a window: words (m; a_1..a_w; n) with M acting on the
    right of itself (m.a) and N on the left (a.n)."""

    def __init__(self, left, spec, right, window, complex_, max_weight):
        self.left = left
        self.spec = spec
        self.right = right
        self.field = spec.field
        self.window = window
        self.padded = complex_.window
        self.basis = complex_.basis
        self.complex = complex_
        self.max_weight = max_weight

    def dims(self):
        return {d: len(ws) for d, ws in sorted(self.basis.items())}

    def homology_dims(self):
        rep = self.complex.cohomology(representatives=False)
        return {d: rep.dims.get(d, 0) for d in self.window.degrees()}

    def __repr__(self):
        return (f"TwoSidedBarSlice({self.left.name}, {self.spec.name}, "
                f"{self.right.name}, window={self.window!r})")


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

    # At total degree d the word degree e, the M degree dm and the N degree
    # dn satisfy dm + e + dn = d; the regime pins the sign of e and the
    # module bounds make each loop finite.
    basis = {}
    for d in padded.degrees():
        entries = []
        if kind == "connective":
            e_range = range(d - left.max_degree - right.max_degree, 1)
        else:
            e_range = range(0, d - left.min_degree - right.min_degree + 1)
        for e in e_range:
            words = enum.words(e, cap)
            if not words:
                continue
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
                for m in ms:
                    for word in words:
                        for n in ns:
                            entries.append((m, word, n))
        basis[d] = entries
    complex_ = complex_from_labels(
        spec.field, padded, basis,
        lambda label: _two_sided_terms(left, spec, right, label))
    return TwoSidedBarSlice(left, spec, right, window, complex_, cap)


def _two_sided_terms(left, spec, right, label):
    """The terms of the differential of B(M, A, N) on (m; a_1..a_w; n): the
    module differentials and outer merges around the word's own terms."""
    m, word, n = label
    field = spec.field
    one = field.one
    minus = field.neg(one)
    dm_deg = left.degree(m)

    # (dm; A; n)
    for mm, c in left.diff(m).items():
        yield (mm, word, n), c

    terms, p_last = _word_terms(spec, word, dm_deg)
    for ww, c in terms:
        yield (m, ww, n), c

    # (-1)^{P_w} (m; A; dn)
    sign_n = one if p_last % 2 == 0 else minus
    for nn, c in right.diff(n).items():
        yield (m, word, nn), field.mul(sign_n, c)

    if word:
        # -(-1)^{|m|} (m.a_1; a_2..; n)
        sign_l = minus if dm_deg % 2 == 0 else one
        for mm, c in left.right_act(m, word[0]).items():
            yield (mm, word[1:], n), field.mul(sign_l, c)
        # +(-1)^{P_{w-1}} (m; a_1..a_{w-1}; a_w.n)
        p_prev = p_last - (spec.degree(word[-1]) - 1)
        sign_r = one if p_prev % 2 == 0 else minus
        for nn, c in right.left_act(word[-1], n).items():
            yield (m, word[:-1], nn), field.mul(sign_r, c)


def derived_tensor_dims(left, spec, right, window, max_weight=None):
    """Cohomology dimensions of B(left, spec, right) on the requested window
    (this computes the derived tensor product of the two modules over spec)."""
    return two_sided_bar(left, spec, right, window, max_weight=max_weight).homology_dims()
