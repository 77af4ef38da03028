"""A fixed chunk of pure-Python work that measures the machine's speed.

On a shared virtual machine the same interpreter code runs faster or
slower by up to about 1.4 times for seconds to minutes at a time, in CPU
time as well as wall time: the host changes the core's clock and what runs
beside it, switching state within a second as often as once a minute.
The benchmark runs this chunk between its operations and scales each time
it measures by NOMINAL_S over the chunk's mean CPU time in the same pass,
so that the bounded metrics read in seconds of a machine on which one
chunk takes NOMINAL_S.  The mean, not the median: an operation of a
second or more runs at the speed averaged over the states it meets.  The chunk never calls the engine, so
no change to the engine can move it.

The work resembles the engine's inner loop: sparse row reduction of
dict-vectors keyed by tuples, over Fractions and over the integers mod a
prime.
"""

import time
from fractions import Fraction

# CPU seconds one chunk takes on the reference machine (a 2-core x86_64 VM
# with CPython 3.11, in its usual state).
NOMINAL_S = 0.010

PRIME = 32003


def _rows(scalar):
    return [{(j % 4, (i * 7 + j * 3) % 11): scalar((i + 2 * j) % 5 + 1, j % 3 + 1)
             for j in range(7)}
            for i in range(14)]


def _rank(rows, add, mul, inv):
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                c = inv(row[lead])
                pivots[lead] = {k: mul(c, v) for k, v in row.items()}
                break
            c = mul(-1, row[lead])
            for k, v in pivot.items():
                s = add(row.get(k, 0), mul(c, v))
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
    return len(pivots)


def _work():
    """About equal shares of Fraction and of modular arithmetic."""
    for _ in range(2):
        rank_q = _rank(_rows(Fraction), lambda a, b: a + b, lambda a, b: a * b,
                       lambda a: 1 / a)
    for _ in range(10):
        rank_p = _rank(_rows(lambda a, b: a * pow(b, PRIME - 2, PRIME) % PRIME),
                       lambda a, b: (a + b) % PRIME, lambda a, b: a * b % PRIME,
                       lambda a: pow(a, PRIME - 2, PRIME))
    return rank_q, rank_p


def chunk_s():
    """CPU seconds of one chunk."""
    start = time.process_time()
    _work()
    return time.process_time() - start
