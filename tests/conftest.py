"""The matrix check of d^2 = 0 on every bar whose d^2 the letter table
certified, and on every dual assembled natively from such a table.

A bar whose letter table passes its certificate (koszul.bar._LetterTable
.certify) skips the matrix check when its cohomology is taken, and so does
the dual that koszul.bar._cobar_slice assembles from that table, whose
signed transpose koszul.bar._bar_slice builds as the bar, so at run time
nothing would catch a sign bug in the assembly or the transpose.  This
fixture keeps that guard in the suite: it records every complex that
koszul.bar._bar_slice or koszul.bar._cobar_slice marks as certified
during a test, and after the test asserts that their matrices really
have d^2 = 0.  A test that breaks the assembly on purpose removes its
complexes from the list it yields.
"""

import pytest

from koszul import bar
from koszul.exactla import CochainComplexSlice

# the matrix check itself, in case a test replaces the method
_d_squared_failure = CochainComplexSlice.d_squared_failure


@pytest.fixture(autouse=True)
def certified_complexes(monkeypatch):
    marked = []
    bar_slice, cobar_slice = bar._bar_slice, bar._cobar_slice

    def recording(*args, **kwargs):
        built = bar_slice(*args, **kwargs)
        if built.complex.certified_by is not None:
            marked.append(built.complex)
        return built

    def recording_cobar(*args, **kwargs):
        built = cobar_slice(*args, **kwargs)
        if built.certified_by is not None:
            marked.append(built)
        return built

    monkeypatch.setattr(bar, "_bar_slice", recording)
    monkeypatch.setattr(bar, "_cobar_slice", recording_cobar)
    yield marked
    for complex_ in marked:
        assert _d_squared_failure(complex_) is None, "a certified complex has d^2 != 0"
