"""The matrix check of d^2 = 0 on every bar whose d^2 the letter table
certified.

A bar whose letter table passes its certificate (koszul.bar._LetterTable
.certify) skips the matrix check when its cohomology is taken, so at run
time nothing would catch a sign bug in the assembly itself.  This fixture
keeps that guard in the suite: it records every complex that
koszul.bar._bar_slice marks as certified during a test, and after the test
asserts that its matrices really have d^2 = 0.  A test that breaks the
assembly on purpose removes its complex from the list it yields.
"""

import pytest

from koszul import bar
from koszul.exactla import CochainComplexSlice

# the matrix check itself, in case a test replaces the method
_d_squared_failure = CochainComplexSlice.d_squared_failure


@pytest.fixture(autouse=True)
def certified_complexes(monkeypatch):
    marked = []
    bar_slice = bar._bar_slice

    def recording(*args, **kwargs):
        built = bar_slice(*args, **kwargs)
        if built.complex.certified_by is not None:
            marked.append(built.complex)
        return built

    monkeypatch.setattr(bar, "_bar_slice", recording)
    yield marked
    for complex_ in marked:
        assert _d_squared_failure(complex_) is None, "a certified bar has d^2 != 0"
