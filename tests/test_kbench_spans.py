"""Guard for the benchmark's tracer: every engine name that kbench/spans.py
wraps must still exist, so a rename fails here rather than at benchmark
time with --trace 1."""

import importlib
import os

from koszul.dga import square_zero, truncated_polynomial
from koszul.exactla import QQ, Field, Window

KBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "kbench")


def _owner(modname, path):
    module = importlib.import_module("koszul." + modname)
    owner_name, _, attr = path.rpartition(".")
    return (getattr(module, owner_name) if owner_name else module), attr


def test_tracer_installs_every_span_and_restores_the_engine(monkeypatch):
    monkeypatch.syspath_prepend(KBENCH)
    spans = importlib.import_module("spans")
    owners = [_owner(m, path) for m, path, _ in spans.TARGETS]
    before = [owner.__dict__[attr] for owner, attr in owners]

    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(owners, before):
            assert owner.__dict__[attr] is not original
            assert owner.__dict__[attr].__wrapped__ is original
        dual = importlib.import_module("koszul.dual")
        tracer.run_job("guard", "call", lambda: dual.dual_cohomology_dims(
            square_zero(QQ, 1), Window(0, 4)))
    finally:
        tracer.uninstall()

    for (owner, attr), original in zip(owners, before):
        assert owner.__dict__[attr] is original
    names = {span[0] for span in tracer.spans}
    assert {"dual.koszul_dual_slice", "dual.homology_dims", "bar.bar_complex",
            "exactla.cohomology"} <= names


def test_probes_read_the_same_sizes_on_a_fixed_bar(monkeypatch):
    """The benchmark's size probes on the bar of k[x]/x^3 over F_32003 on
    [-10, 0]: the differentials' nnz, their ranks, the largest one's shape
    and the pivot fill-in of its column elimination.  A change to
    SpanTracker or rank must not shift these per-layer metrics."""
    monkeypatch.syspath_prepend(KBENCH)
    spans = importlib.import_module("spans")
    importlib.import_module("koszul.cli")
    bar = importlib.import_module("koszul.bar")
    cubic = truncated_polynomial(Field(32003), 3, 0)

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_job("probe", "call",
                       lambda: bar.bar_homology_dims(cubic, Window(-10, 0)))
    finally:
        tracer.uninstall()

    _, summary, largest = spans.probe_slices(tracer.job)
    assert summary["nnz_total"] == 9217
    assert summary["rank_total"] == 1359
    assert summary["largest_d"] == [1024, 2048, 5120]
    assert spans.pivot_nnz(largest) == 5345
