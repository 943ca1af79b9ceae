"""The benchmark instruments chgeom from outside the package, by looking
up attributes in module and class dictionaries and reading call
arguments by name.  A renamed function or parameter would crash the
benchmark; this test runs a traced one-radius sweep to catch that."""

from pathlib import Path

from chgeom import cli, spectral

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_instrumentation_traces_a_sweep(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    recorder = spans.SpanRecorder()
    instr = spans.Instrumentation(recorder)
    instr.install()
    try:
        code = cli.main([
            "sweep", "--n", "2", "--c", "-4", "--k", "1",
            "--r-min", "0.5", "--r-max", "0.5", "--count", "1",
            "--output", str(tmp_path / "sweep.csv"),
        ])
    finally:
        instr.uninstall()
    assert code == 0
    totals = recorder.totals()
    transport = totals["model.integrate_transport"]
    oracle = totals["jacobi.jacobi_ode_oracle"]
    assert transport["calls"] == 1 and transport["steps"] == 500
    assert oracle["calls"] == 1 and oracle["steps"] == 500
    assert cli.classify is spectral.classify  # originals restored
