"""Closed-form answers for every benchmark job.

Nothing here imports the engine: each answer is derived by hand from the
algebra, so a wrong engine answer cannot also become the reference.
Conventions follow the engine: cohomological grading, bar homology
(Tor^A(k, k)) sits in degrees <= 0, Ext_A(k, k) in degrees >= 0, and
dims are reported as {degree: dimension} on every degree of a window.
"""

from math import comb


def dims(lo, hi, rule):
    """{d: rule(d)} on the closed window [lo, hi]."""
    return {d: rule(d) for d in range(lo, hi + 1)}


def exterior_count(n_gens, i):
    """Dimension of Tor_i = Ext^i over k[x_1..x_n]/(x_1^2..x_n^2), |x_j| = 0.

    Each factor k[x]/x^2 contributes one class per homological degree, so the
    tensor product has C(i + n - 1, n - 1) classes in degree i (i + 1 for two
    generators, C(i + 2, 2) for three).  k[x]/x^m for m >= 2 behaves like one
    factor: one class per degree.
    """
    return comb(i + n_gens - 1, n_gens - 1) if i >= 0 else 0


def tor_exterior(n_gens, lo, hi):
    """Bar homology of k[x_1..x_n]/(x_j^2) (or of k[x]/x^m when n = 1)."""
    return dims(lo, hi, lambda d: exterior_count(n_gens, -d))


def ext_exterior(n_gens, lo, hi):
    """Ext of k[x_1..x_n]/(x_j^2) (or of k[x]/x^m when n = 1)."""
    return dims(lo, hi, lambda d: exterior_count(n_gens, d))


def ext_square_zero(n, lo, hi):
    """Ext over k+k[n]: free on one class of degree n+1, so one class at
    every nonnegative multiple of n+1."""
    return dims(lo, hi, lambda d: int(d >= 0 and d % (n + 1) == 0))


def tor_square_zero(n, lo, hi):
    """Tor over k+k[n]: the bar words [e|..|e] of degree -j(n+1)."""
    return dims(lo, hi, lambda d: int(d <= 0 and d % (n + 1) == 0))


def input_square_zero(n, lo, hi):
    """Cohomology of k+k[n] itself (n >= 1): k in degree 0 and in -n.  The
    double dual must return exactly this."""
    return dims(lo, hi, lambda d: int(d in (0, -n)))


def tor_free_one(n, lo, hi):
    """Tor over the free algebra k<u>, |u| = n+1, and the strict tensor
    k (x)_{k<u>} Kos(n): k in degree 0 and k in degree n."""
    return dims(lo, hi, lambda d: int(d in (0, n)))


def radical_dims_exterior(n_gens):
    """dim m^i of k[x_1..x_n]/(x_j^2) for i = 0..n+1: the monomials of
    degree >= i, ending at 0."""
    return [sum(comb(n_gens, j) for j in range(i, n_gens + 1))
            for i in range(n_gens + 2)]


def exterior_total_dim(n_gens):
    return 2 ** n_gens


def cubic_ring_facts(ring):
    """Basis-free ring facts for Ext over k[x]/x^3 = Lambda(z) (x) k[y],
    |z| = 1, |y| = 2: z^2 = 0 and y^2 != 0.

    ring maps ((d1, i1), (d2, i2)) to a lincomb {(d3, i3): c}; degrees 1, 2
    and 4 are one-dimensional, so each product is fixed up to a unit and
    zero-ness does not depend on the chosen representatives.
    """
    z_squared = ring.get(((1, 0), (1, 0)))
    y_squared = ring.get(((2, 0), (2, 0)))
    return (z_squared is not None and not z_squared
            and bool(y_squared) and set(y_squared) == {(4, 0)})


# Expected verdicts that need no computation at all.  The homotopy pullback
# k x_{k+k[1]} k has cohomology k + k[0], total dimension 2: k+k[0] = k[e]/e^2
# matches it, k[x]/x^3 (dimension 3) cannot.
POWER_GENERATED_SQUARE_ZERO_1 = True   # Ext over k+k[1] is k[u], |u| = 2
SQUARE_ARCHETYPE_VERDICT = True
SQUARE_CUBIC_VERDICT = False
