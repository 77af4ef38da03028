"""Labels on demand: the bars list their chains as label tuples, and a
FiniteDga indexes its labels, only where something reads them.

Dims-only answers and the Koszul dual's ring constants are read from block
sizes and index vectors, so they must build no chain tuple above degree 0
(the dual's augmentation looks up the empty word in degree 0) and no
label index.  What is read afterwards must be exactly the eager listing:
the same tuples, equal both ways, with the same repr, and the same errors
where a table is `dropped`.
"""

import pytest

from koszul import bar as bars
from koszul.bar import bar_complex, bar_homology_dims, derived_tensor_dims, two_sided_bar
from koszul.dga import DgAlgebraSpec, FiniteDga, free_assoc, square_zero, truncated_polynomial
from koszul.dgmod import regular_module, trivial_module
from koszul.dual import dual_cohomology_dims, dual_cohomology_ring, koszul_dual_slice
from koszul.exactla import QQ, Field, StructuralError, Window

FIELDS = [QQ, Field(32003), Field(5)]


def _counted(monkeypatch):
    """(degrees, reads): the degree of every label_chains call, and each
    read of a FiniteDga's index, from here on."""
    degrees, reads = [], []
    label_chains = bars._ChainEnumerator.label_chains
    index = FiniteDga.__dict__["index"]

    def counted_chains(self, d):
        degrees.append(d)
        return label_chains(self, d)

    def counted_index(self):
        reads.append(self)
        return index.__get__(self, FiniteDga)

    monkeypatch.setattr(bars._ChainEnumerator, "label_chains", counted_chains)
    monkeypatch.setattr(FiniteDga, "index", property(counted_index))
    return degrees, reads


def _eager_reduced(spec, window):
    """The reduced bar's basis listed eagerly, every degree of the padded
    window at once, its empty degrees left out."""
    padded = window.padded()
    enum = bars._ChainEnumerator(spec, bars._regime(spec, padded))
    return {d: enum.label_chains(d) for d in padded.degrees() if enum.label_chains(d)}


def _eager_two_sided(left, spec, right, window):
    """B(left, spec, right)'s basis listed eagerly: degree d holds (m, word,
    n) for the chains of degree d - |m|, m by degree and then in order."""
    padded = window.padded()
    regime = bars._regime(spec, padded)
    connective = regime[0] == "connective"
    if not connective:
        hi = padded.hi - left.min_degree
        regime = bars._regime(spec, Window(padded.lo, max(padded.hi, hi - right.min_degree)))
    fresh = bars._ChainEnumerator(spec, regime, right)
    basis = {}
    for d in padded.degrees():
        labels = []
        for dm in (range(d - right.max_degree, left.max_degree + 1) if connective
                   else range(left.min_degree, d - right.min_degree + 1)):
            ms = left.basis(dm)
            chains = fresh.label_chains(d - dm) if ms else ()
            labels += [(m, c[:-1], c[-1]) for m in ms for c in chains]
        if labels:
            basis[d] = tuple(labels)
    return basis


def _assert_listed_as(built, eager):
    """built (degree -> Listing) lists exactly eager (degree -> tuple)."""
    assert built == eager and eager == built
    assert repr(built) == repr(eager)
    for d, labels in eager.items():
        listed = built[d]
        assert len(listed) == len(labels)
        assert listed == labels and labels == listed and not listed != labels
        assert repr(listed) == repr(labels)
        assert tuple(listed) == labels and list(listed) == list(labels)
        assert hash(listed) == hash(labels)
        assert all(listed[i] == label for i, label in enumerate(labels))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_dims_and_ring_answers_list_no_label(monkeypatch, field):
    degrees, reads = _counted(monkeypatch)
    cubic = truncated_polynomial(field, 3, 0)
    k, reg = trivial_module(cubic), regular_module(cubic)
    assert bar_homology_dims(cubic, Window(-8, 0)) == dict.fromkeys(range(-8, 1), 1)
    for left in (k, reg):
        for right in (k, reg):
            derived_tensor_dims(left, cubic, right, Window(-6, 0))
    assert dual_cohomology_dims(cubic, Window(0, 8)) == dict.fromkeys(range(9), 1)
    assert dual_cohomology_ring(cubic, Window(0, 6)).ring
    assert dual_cohomology_ring(square_zero(field, 1), Window(0, 12)).dims \
        == {d: int(d % 2 == 0) for d in range(13)}
    # a coconnected algebra: its bar sits in positive degrees, its dual in negative ones
    free = free_assoc(field, [("u", 2), ("v", 3)])
    bar_homology_dims(free, Window(0, 8))
    dual_cohomology_dims(free, Window(-8, 0))
    dual_cohomology_ring(free, Window(-6, 0))
    derived_tensor_dims(trivial_module(free), free, regular_module(free), Window(0, 6))
    assert set(degrees) <= {0}
    assert reads == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_what_is_read_afterwards_is_the_eager_listing(monkeypatch, field):
    degrees, reads = _counted(monkeypatch)
    for spec, window in ((truncated_polynomial(field, 3, 0), Window(-6, 0)),
                         (square_zero(field, 2), Window(-7, 1)),
                         (free_assoc(field, [("u", 2), ("v", 3)]), Window(-1, 6))):
        bar_homology_dims(spec, window)
        dual = koszul_dual_slice(spec, window.mirrored())
        dual.homology_dims()
        assert set(degrees) <= {0} and reads == []
        eager = _eager_reduced(spec, window)
        _assert_listed_as(bar_complex(spec, window).basis, eager)
        _assert_listed_as(dual.algebra.basis, {-d: labels for d, labels in eager.items()})
        assert dual.algebra.index == {w: (-d, i) for d, labels in eager.items()
                                      for i, w in enumerate(labels)}
        for left in (trivial_module(spec), regular_module(spec)):
            for right in (trivial_module(spec), regular_module(spec)):
                built = two_sided_bar(left, spec, right, window)
                _assert_listed_as(built.basis, _eager_two_sided(left, spec, right, window))
        del degrees[:], reads[:]


def _bad_square():
    """1 and u in degree 3 with u*u = z, a label no degree lists: every bar
    whose columns leave degree 4 holds [u|u] and reports the term."""
    one = QQ.one

    def mult(a, b):
        if a == "1":
            return {b: one}
        return {a: one} if b == "1" else {"z": one}

    return DgAlgebraSpec(
        QQ, "bad", basis=lambda d: {0: ("1",), 3: ("u",)}.get(d, ()),
        degree=lambda l: 0 if l == "1" else 3, diff=lambda l: {}, mult=mult,
        unit="1", aug=lambda l: one if l == "1" else QQ.zero, min_degree=0, max_degree=3)


def test_a_dropped_table_reports_the_eagerly_listed_error():
    spec = _bad_square()
    k, reg = trivial_module(spec), regular_module(spec)
    assert bars._reduced(spec, Window(0, 4)).table.dropped
    cases = [
        (lambda: bar_complex(spec, Window(0, 4)),
         "d(('u', 'u')) has term ('z',) outside the degree 5 basis"),
        (lambda: koszul_dual_slice(spec, Window(-4, 0)),
         "d(('u', 'u')) has term ('z',) outside the degree 5 basis"),
        (lambda: two_sided_bar(k, spec, k, Window(0, 4)),
         "d(('[]', ('u', 'u'), '[]')) has term ('[]', ('z',), '[]') outside the degree 5 basis"),
        (lambda: derived_tensor_dims(reg, spec, reg, Window(0, 4)),
         "d(('1', ('u', 'u'), '1')) has term ('1', ('z',), '1') outside the degree 5 basis"),
        (lambda: two_sided_bar(k, spec, reg, Window(0, 4)),
         "d(('[]', ('u', 'u'), '1')) has term ('[]', ('z',), '1') outside the degree 5 basis"),
    ]
    for call, message in cases:
        with pytest.raises(StructuralError) as err:
            call()
        assert str(err.value) == message
