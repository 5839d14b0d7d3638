"""The benchmark's tracer (perfbench/tracer.py) wraps truncgrp functions
and methods by name, some of them in a class's own body
(``vars(Fq)["mul"]``).  A name it needs that moves or disappears fails
here, not only when the benchmark runs."""

from pathlib import Path

import pytest

from truncgrp import cli, matrix, ring

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("peaks", [False, True], ids=["spans", "peaks"])
def test_tracer_wraps_and_reports_every_metric(peaks, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    before = {(cls, name): vars(cls)[name]
              for cls, name in ((ring.Fq, "mul"), (ring.Fq, "fermat_check"),
                                (ring.Ring, "mul"), (ring.Ring, "selftest"),
                                (matrix.Mat, "__mul__"))}
    t = tracer.Tracer(peaks=peaks)
    t.install()
    try:
        report = ring.ring_make("poly", 2, 2, 1).selftest()
        rc = cli.main(["--canonical", "verify", "order-witness"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert report.ok and rc == 0
    assert {key: vars(key[0])[key[1]] for key in before} == before
    assert not hasattr(matrix.p_exponent, "__wrapped__")

    metrics = t.metrics()
    units = tracer.metric_units()
    assert list(metrics) == [n for n, u in units.items() if u == "MB" or not peaks]
    if peaks:
        assert metrics["matrix.p_exponent_peak_mb.poly"] > 0
    else:
        assert metrics["ring.rings_checked"] == 1
        assert metrics["ring.fermat_fields"] == 1
        assert metrics["ring.fq_mul_calls"] > 0 and metrics["ring.ring_mul_calls"] > 0
        assert metrics["matrix.p_exponent_s.poly"] > 0
        assert metrics["matrix.mat_mul_calls"] > 0
        assert metrics["batch.matmul_calls.poly"] > 0
        # matmul blocks both factors with the traced block
        assert metrics["batch.block_s.poly"] > 0
        assert metrics["cli.verify_s.order-witness"] > 0
