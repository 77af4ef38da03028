"""The structure of homotopy fiber products and their connective covers.

Both are sub-dg-algebras of an ambient algebra, spanned by chosen vectors
with a unit-first, augmentation-adapted degree-0 basis.  The tables below
pin every basis label, differential, product and augmentation for three
fiber products and their covers; a coefficient is written as an integer and
read in the field, so -1 is 4 over F_5.  Each fiber product entry also
lists the (x, path, y) triple behind each basis label.
"""

import pytest

from koszul.exactla import QQ, Field, Window, StructuralError
from koszul.dga import (
    DgaMap, algebra_slice, square_zero, connective_cover, finite_dga_from_tables,
)
from koszul.artin import k_slice, unit_inclusion, homotopy_fiber_product

FIELDS = [QQ, Field(5)]

STRUCTURE = {
    # k x_{k+k[1]} k
    ("k_k1_k", "fp"): {
        "basis": {0: ("1", "v(0,1)", "v(0,2)"), 1: ("v(1,0)",)},
        "diff": {"v(0,2)": {"v(1,0)": 1}},
        "mult": {("v(0,1)", "v(0,2)"): {"v(0,1)": 1},
                 ("v(0,2)", "v(0,2)"): {"v(0,2)": 1},
                 ("v(1,0)", "v(0,2)"): {"v(1,0)": 1}},
        "triples": {"1": ({"1": 1}, {("1", "1"): 1}, {"1": 1}),
                    "v(0,1)": ({}, {("e", "h"): 1}, {}),
                    "v(0,2)": ({}, {("1", "e"): 1}, {"1": 1}),
                    "v(1,0)": ({}, {("1", "h"): 1}, {})},
    },
    ("k_k1_k", "cover"): {
        "basis": {0: ("1", "c1")},
        "diff": {},
        "mult": {},
    },
    # k x_{k+k[2]} k
    ("k_k2_k", "fp"): {
        "basis": {-1: ("v(-1,0)",), 0: ("1", "v(0,1)"), 1: ("v(1,0)",)},
        "diff": {"v(0,1)": {"v(1,0)": 1}},
        "mult": {("v(-1,0)", "v(0,1)"): {"v(-1,0)": 1},
                 ("v(0,1)", "v(0,1)"): {"v(0,1)": 1},
                 ("v(1,0)", "v(0,1)"): {"v(1,0)": 1}},
        "triples": {"1": ({"1": 1}, {("1", "1"): 1}, {"1": 1}),
                    "v(-1,0)": ({}, {("e", "h"): 1}, {}),
                    "v(0,1)": ({}, {("1", "e"): 1}, {"1": 1}),
                    "v(1,0)": ({}, {("1", "h"): 1}, {})},
    },
    ("k_k2_k", "cover"): {
        "basis": {-1: ("v(-1,0)",), 0: ("1",)},
        "diff": {},
        "mult": {},
    },
    # z x_z z along the identity, z = k+k[1]
    ("z_z_z", "fp"): {
        "basis": {-1: ("v(-1,0)", "v(-1,1)"), 0: ("1", "v(0,1)", "v(0,2)"),
                  1: ("v(1,0)",)},
        "diff": {"v(-1,0)": {"v(0,1)": -1}, "v(0,2)": {"v(1,0)": 1}},
        "mult": {("v(-1,0)", "v(1,0)"): {"v(0,1)": -1},
                 ("v(-1,1)", "v(0,2)"): {"v(-1,0)": 1, "v(-1,1)": 1},
                 ("v(-1,1)", "v(1,0)"): {"v(0,1)": 1},
                 ("v(0,1)", "v(0,2)"): {"v(0,1)": 1},
                 ("v(0,2)", "v(-1,1)"): {"v(-1,0)": 1, "v(-1,1)": 1},
                 ("v(0,2)", "v(0,2)"): {"v(0,2)": 1},
                 ("v(1,0)", "v(-1,1)"): {"v(0,1)": -1},
                 ("v(1,0)", "v(0,2)"): {"v(1,0)": 1}},
        "triples": {"1": ({"1": 1}, {("1", "1"): 1}, {"1": 1}),
                    "v(-1,0)": ({"e": -1}, {("e", "1"): -1, ("e", "e"): 1}, {}),
                    "v(-1,1)": ({"e": 1}, {("e", "1"): 1}, {"e": 1}),
                    "v(0,1)": ({}, {("e", "h"): 1}, {}),
                    "v(0,2)": ({}, {("1", "e"): 1}, {"1": 1}),
                    "v(1,0)": ({}, {("1", "h"): 1}, {})},
    },
    ("z_z_z", "cover"): {
        "basis": {-1: ("v(-1,0)", "v(-1,1)"), 0: ("1", "c1")},
        "diff": {"v(-1,0)": {"c1": -1}},
        "mult": {},
    },
}


def identity_map(a):
    one = a.field.one
    return DgaMap(a, a, {l: {l: one} for ls in a.basis.values() for l in ls}, name="id")


def fiber_product(field, case):
    k = k_slice(field)
    z1 = algebra_slice(square_zero(field, 1), Window(-1, 0))
    z2 = algebra_slice(square_zero(field, 2), Window(-2, 0))
    if case == "k_k1_k":
        return homotopy_fiber_product(unit_inclusion(k, z1), unit_inclusion(k, z1))
    if case == "k_k2_k":
        return homotopy_fiber_product(unit_inclusion(k, z2), unit_inclusion(k, z2))
    return homotopy_fiber_product(identity_map(z1), identity_map(z1))


def in_field(field, lc):
    return {k: field.of_int(c) for k, c in lc.items()}


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5"])
@pytest.mark.parametrize("case, kind", sorted(STRUCTURE))
def test_structure_is_pinned(field, case, kind):
    fp = fiber_product(field, case)
    a = fp if kind == "fp" else connective_cover(fp)
    want = STRUCTURE[case, kind]
    assert {d: tuple(ls) for d, ls in a.basis.items()} == want["basis"]
    labels = [l for d in sorted(a.basis) for l in a.basis[d]]
    for l in labels:
        assert a.diff(l) == in_field(field, want["diff"].get(l, {})), l
    # the unit acts as the identity; every other product is listed
    products = {("1", l): {l: 1} for l in labels}
    products.update({(l, "1"): {l: 1} for l in labels})
    products.update(want["mult"])
    for p in labels:
        for q in labels:
            assert a.mult(p, q) == in_field(field, products.get((p, q), {})), (p, q)
    assert a.aug == {"1": field.one}
    if kind == "fp":
        assert set(want["triples"]) == set(labels)
        for l, triple in want["triples"].items():
            parts = [in_field(field, part) for part in triple]
            assert fp.fp_express(*parts, a.degree(l)) == {l: field.one}, l


def test_cover_refuses_a_degree_zero_label_already_taken():
    # "c1" names a degree -1 element, and the cover would name the kernel
    # vector z of d_0 "c1" too
    one = QQ.one
    basis = {-1: ("c1",), 0: ("1", "x", "z"), 1: ("y",)}
    mult = {("1", l): {l: one} for ls in basis.values() for l in ls}
    mult.update({(l, "1"): {l: one} for ls in basis.values() for l in ls})
    a = finite_dga_from_tables(QQ, Window(-1, 1), basis, {"x": {"y": one}}, mult,
                               "1", {"1": one}, complete=True, name="taken")
    # refused as a degree-0 label, before the basis is assembled with it twice
    with pytest.raises(StructuralError, match="degree-0 .*label 'c1'"):
        connective_cover(a)
