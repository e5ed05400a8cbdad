"""The benchmark's span table stays true to the program.

perfbench/layers.json lists, for each span, the workloads on which it must
record calls, and a traced benchmark run counts a span that records none
there as a failure.  This runs one round of each workload of
perfbench/workloads.py under perfbench's own tracer, so a rename or a
bypass that would zero a span fails here first.  It only reads perfbench/.
"""

import contextlib
import io
import json
import pathlib

import pytest

import qskew
import qskew.cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads
    return tracer, workloads


def test_every_called_on_span_records_calls(perfbench, tmp_path):
    tracer, workloads = perfbench
    table = json.loads((PERFBENCH / "layers.json").read_text())
    for name, build in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = build(1, workdir)
        trace = tracer.Tracer(qskew)
        trace.install()
        try:
            for leg in workload.legs:
                for request in leg.requests(0):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        rc = qskew.cli.main(request.argv)
                    assert rc == 0, request.argv
                    assert request.check(out.getvalue()) is None, request.argv
        finally:
            trace.uninstall()
        totals = tracer.new_totals()
        trace.summarize(trace.take(), totals)
        silent = [entry["span"] for entry in table["layers"]
                  if name in entry["called_on"] and totals[entry["span"]]["calls"] == 0]
        assert not silent, (name, silent)
