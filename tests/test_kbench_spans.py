"""Guard for the benchmark's tracer: every engine name that kbench/spans.py
wraps must still exist, so a rename fails here rather than at benchmark
time with --trace 1."""

import importlib
import os
from fractions import Fraction

from koszul.dga import finite_dga_from_tables, square_zero, truncated_polynomial
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
        bar = importlib.import_module("koszul.bar")
        # dual dims no longer build the bar, so the job builds it too
        tracer.run_job("guard", "call", lambda: (
            dual.dual_cohomology_dims(square_zero(QQ, 1), Window(0, 4)),
            bar.bar_complex(square_zero(QQ, 1), Window(-4, 0))))
    finally:
        tracer.uninstall()

    for (owner, attr), original in zip(owners, before):
        assert owner.__dict__[attr] is original
    names = {span[0] for span in tracer.spans}
    assert {"dual.koszul_dual_slice", "dual.homology_dims", "bar.bar_complex",
            "exactla.cohomology"} <= names


def _probe(monkeypatch, call):
    """The size probes of kbench/spans.py on what call(bar) takes the
    cohomology of, bar the koszul.bar module: (summary, pivot fill-in of
    the largest differential)."""
    monkeypatch.syspath_prepend(KBENCH)
    spans = importlib.import_module("spans")
    importlib.import_module("koszul.cli")
    bar = importlib.import_module("koszul.bar")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_job("probe", "call", lambda: call(bar))
    finally:
        tracer.uninstall()
    _, summary, largest = spans.probe_slices(tracer.job)
    return summary, spans.pivot_nnz(largest)


def _probe_bar(monkeypatch, spec, window):
    """The probes on the bar of spec itself, built by bar_complex, whose
    cohomology is taken on its own matrices (its homology_dims reads a
    connective bar's dims from the dual)."""
    return _probe(monkeypatch, lambda bar: bar.bar_complex(spec, window).complex.cohomology(
        representatives=False))


def test_probes_read_the_same_sizes_on_a_fixed_bar(monkeypatch):
    """The benchmark's size probes on the bar of k[x]/x^3 over F_32003 on
    [-10, 0]: the differentials' nnz, their ranks, the largest one's shape
    and the pivot fill-in of its column elimination.  A change to
    SpanTracker or rank must not shift these per-layer metrics."""
    cubic = truncated_polynomial(Field(32003), 3, 0)
    summary, fill = _probe_bar(monkeypatch, cubic, Window(-10, 0))
    assert summary["nnz_total"] == 9217
    assert summary["rank_total"] == 1359
    assert summary["largest_d"] == [1024, 2048, 5120]
    assert fill == 2275


def test_probes_of_bar_dims_read_the_natively_built_dual(monkeypatch):
    """bar_homology_dims takes the cohomology of the dual assembled from
    the letter table, not of the bar: the same nnz and ranks, the largest
    differential transposed, and the fill-in of eliminating its columns,
    which are the bar's rows."""
    cubic = truncated_polynomial(Field(32003), 3, 0)
    summary, fill = _probe(monkeypatch, lambda bar: bar.bar_homology_dims(cubic, Window(-10, 0)))
    assert summary["nnz_total"] == 9217
    assert summary["rank_total"] == 1359
    assert summary["largest_d"] == [2048, 1024, 5120]
    assert fill == 4624


def test_probes_read_the_same_sizes_on_a_fixed_bar_over_q(monkeypatch):
    """The same probes over Q on the scaled cubic x.x = (2/3) y, whose
    integer pivots must keep the supports that monic Fraction pivots had."""
    one = QQ.one
    mult = {("1", "1"): {"1": one}, ("1", "x"): {"x": one}, ("x", "1"): {"x": one},
            ("1", "y"): {"y": one}, ("y", "1"): {"y": one},
            ("x", "x"): {"y": Fraction(2, 3)}}
    scaled = finite_dga_from_tables(
        QQ, Window(0, 0), {0: ("1", "x", "y")}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True).as_spec()
    summary, fill = _probe_bar(monkeypatch, scaled, Window(-10, 0))
    assert summary["nnz_total"] == 9217
    assert summary["rank_total"] == 1359
    assert summary["largest_d"] == [1024, 2048, 5120]
    assert fill == 2275
