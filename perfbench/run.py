"""qskew benchmark: drives ``qskew.cli.main(argv)`` in-process on seeded inputs.

    python3 perfbench/run.py --workload {search,dense,paper,all} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Each workload runs rounds of its request
list (closed loop, one client, one process) for S seconds after one warm-up
round, and checks every output against numpy.linalg (``oracle.py``).  The
last line of stdout is one JSON object: with ``--trace 0`` the end-to-end
metrics named in BENCHMARK.json, with ``--trace 1`` its per-layer metrics,
taken from traced rounds that alternate with untraced ones.  The lines
before it give the per-path numbers (medians with sample counts), the
machine and the references.  ``--workload all`` runs the three workloads
and reports the per-path numbers of all of them.  The exit code is 1 when
any output was wrong, 2 when the program cannot be imported.

On a shared 2-core x86-64 virtual machine, timings drifted by up to 1.8x
within minutes while CPU time equalled wall time, so the ``*_cost``
metrics divide each request time by a reference kernel (small numpy row
updates plus interpreter arithmetic) measured next to it; raw seconds are
printed too.
"""

import os

# one BLAS thread here and in every child, before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np

try:
    import qskew
    import qskew.cli
except ImportError as exc:
    print("cannot import qskew from %s: %s" % (SRC, exc), file=sys.stderr)
    sys.exit(2)
if Path(qskew.__file__).resolve().parent.parent != SRC:
    print("qskew was imported from %s, not from %s" % (qskew.__file__, SRC),
          file=sys.stderr)
    sys.exit(2)

import oracle
import workloads
from tracer import LAYERS, Tracer, new_totals


# -- references -----------------------------------------------------------------

_REF_ROWS = np.ones((4, 16), dtype=complex)


def unit_s():
    """Median of three passes of the reference kernel, in seconds."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        rows = _REF_ROWS.copy()
        for _ in range(300):
            rows[3] = 0.6 * rows[1] - 0.8 * rows[2]
        acc = 0.0
        for i in range(6000):
            acc += (i * 0.5) % 7.0
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def pyloop_ms():
    """Median of five passes of a fixed pure-Python loop."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200000):
            acc += i * i % 7
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def eigh128_ms(z):
    """numpy eigh on the 128x128 chi(W) of an n = 64 quaternion Z."""
    c = oracle.chi(z)
    w = c @ c.conj().T
    samples = []
    for _ in range(10):
        start = time.perf_counter()
        np.linalg.eigh(w)
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def setup_sample():
    """Seconds for a fresh interpreter to import qskew.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qskew.cli"], cwd=ROOT,
                   env=env, check=True)
    return time.perf_counter() - start


# -- one workload ---------------------------------------------------------------


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qskew.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # counted as a failed request, run goes on
            rc = "%s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue(), time.perf_counter() - start


class Run:
    """Rounds of one workload, with every output checked."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.seen = {}
        self.attempted = 0
        self.failures = []
        self.raw = {leg.name: [] for leg in workload.legs}
        self.cost = {leg.name: [] for leg in workload.legs}
        self.round_raw, self.traced_raw = [], []
        self.units = []
        self.totals = new_totals()
        self.traced_rounds = 0
        self.hits = self.trials = 0
        self.spans_dump = None
        self.span_count = 0

    def check(self, req, rc, out):
        if rc != 0:
            return "exit status %r" % (rc,)
        first = self.seen.get(req.key)
        if first is not None:
            return None if out == first else "output differs from an earlier identical request"
        try:
            reason = req.check(out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            reason = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        if reason is None:
            self.seen[req.key] = out
        return reason

    def round(self, index, traced=False, record=True):
        unit_before = unit_s()
        self.units.append(unit_before)
        if traced:
            self.tracer.install()
        total_raw = 0.0
        try:
            for leg in self.workload.legs:
                times = []
                for req in leg.requests(index):
                    rc, out, seconds = call(req.argv)
                    times.append(seconds)
                    self.attempted += 1
                    reason = self.check(req, rc, out)
                    if reason is not None:
                        self.failures.append("%s %s: %s" % (leg.name, " ".join(req.argv), reason))
                    elif traced and leg.trials:
                        summary = json.loads(out.splitlines()[-1])
                        self.hits += summary["hits"]
                        self.trials += summary["trials"]
                unit_after = unit_s()
                self.units.append(unit_after)
                unit = (unit_before + unit_after) / 2
                unit_before = unit_after
                total_raw += sum(times)
                if record and not traced:
                    self.raw[leg.name].extend(times)
                    self.cost[leg.name].extend(t / unit for t in times)
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            spans = self.tracer.take()
            self.tracer.summarize(spans, self.totals)
            self.traced_rounds += 1
            self.span_count += len(spans)
            self.traced_raw.append(total_raw)
            if self.spans_dump is None:
                self.spans_dump = self.tracer.dump(spans)
        elif record:
            self.round_raw.append(total_raw)

    def measure(self, seconds, trace, setups):
        """Warm up, then rounds for `seconds` of round time; fresh-import
        set-up samples are taken between rounds, off the clock."""
        self.round(0, record=False)
        deadline = time.perf_counter() + seconds
        next_setup = time.perf_counter() + seconds / 8
        index = 1
        while True:
            self.round(index, traced=bool(trace) and index % 2 == 0)
            index += 1
            now = time.perf_counter()
            if now >= next_setup:
                setups.append(setup_sample())
                deadline += time.perf_counter() - now
                next_setup = time.perf_counter() + seconds / 8
            if time.perf_counter() >= deadline and index > (3 if trace else 2):
                break


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def leg_metrics(run):
    """(name, value, unit, note) for each leg, named as the issue tables do."""
    out = []
    for leg in run.workload.legs:
        raw = run.raw[leg.name]
        med = statistics.median(raw)
        note = "median of %d; cost %.4g ref" % (len(raw), statistics.median(run.cost[leg.name]))
        if leg.style == "rate":
            out.append((leg.name + ".trials_per_s", leg.trials / med, "1/s",
                        note + "; %.4g s per request" % med))
        elif leg.style == "s":
            out.append((leg.name + "_s", med, "s", note))
        else:
            out.append((leg.name + "_p50_ms", 1e3 * med, "ms", note))
            if len(raw) >= 100:
                p90 = statistics.quantiles(raw, n=10)[-1]
                out.append((leg.name + "_p90_ms", 1e3 * p90, "ms",
                            "%d samples beyond it" % (len(raw) - int(0.9 * len(raw)))))
    return out


def end_to_end(run, setups):
    legs = run.workload.legs
    medians = {leg.name: statistics.median(run.cost[leg.name]) for leg in legs}
    return {
        "setup_s": statistics.median(setups),
        "large_cost": geomean([medians[l.name] for l in legs if l.size == "large"]),
        "small_cost": geomean([medians[l.name] for l in legs if l.size == "small"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run, table, refs):
    """Per-round layer metrics.  Records a failure for each span that made
    no calls on a workload where layers.json expects calls."""
    rounds = max(run.traced_rounds, 1)
    totals = run.totals
    metrics = {}
    for layer in LAYERS:
        mine = [v for k, v in totals.items() if k.split(".")[0] == layer]
        metrics[layer + ".calls"] = sum(v["calls"] for v in mine) / rounds
        metrics[layer + ".self_s"] = sum(v["self_s"] for v in mine) / rounds
    program = totals["cli.main"]["busy_s"]
    for entry in table["layers"]:
        span = totals[entry["span"]]
        for metric in entry["metrics"]:
            if metric == "share":
                value = span["busy_s"] / program if program else 0.0
            elif metric == "ns_per_n3":
                value = 1e9 * span["busy_s"] / span["n3"] if span["n3"] else 0.0
            elif metric == "hit_ratio":
                value = run.hits / run.trials if run.trials else 0.0
            else:
                value = span[metric] / rounds
            metrics[entry["span"] + "." + metric] = value
        if run.workload.name in entry["called_on"] and span["calls"] == 0:
            run.failures.append("FLAG: %s made no calls on %s; renamed?"
                                % (entry["span"], run.workload.name))
    metrics["trace.overhead_s"] = (statistics.median(run.traced_raw)
                                   - statistics.median(run.round_raw))
    metrics["trace.spans"] = run.span_count / rounds
    metrics.update(refs)
    return metrics


def run_workload(name, seed, seconds, trace, scratch):
    inputs = scratch / ("%s-seed%d" % (name, seed))
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](seed, inputs)
        run = Run(workload, Tracer(qskew) if trace else None)
        setups = [setup_sample() for _ in range(3)]
        run.measure(seconds, trace, setups)
        while len(setups) < 10:
            setups.append(setup_sample())
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    refs = {"reference.eigh128_ms": eigh128_ms(workload.reference_z),
            "reference.pyloop_ms": pyloop_ms(),
            "reference.unit_ms": 1e3 * statistics.median(run.units)}
    if trace and run.spans_dump is not None:
        path = scratch / ("trace-%s-seed%d.json" % (name, seed))
        with open(path, "w") as fh:
            json.dump({"workload": name, "seed": seed, "spans": run.spans_dump}, fh)
    return run, setups, refs


def report_lines(name, run, setups, refs):
    print("== workload %s: %d measured rounds, %d traced" % (
        name, len(run.round_raw), run.traced_rounds))
    for metric, value, unit, note in leg_metrics(run):
        print("  %-34s %12.6g %-4s (%s)" % (metric, value, unit, note))
    print("  %-34s %12.6g %-4s (%d failed of %d attempted)" % (
        "error_rate", len(run.failures) / run.attempted, "", len(run.failures), run.attempted))
    print("  %-34s %12.6g %-4s (median of %d fresh imports)" % (
        "setup_s", statistics.median(setups), "s", len(setups)))
    print("  " + "  ".join("%s=%.4g" % kv for kv in sorted(refs.items())))
    if run.traced_rounds:
        top = sorted(run.totals.items(), key=lambda kv: -kv[1]["self_s"])[:5]
        print("  largest self time per round: " + ", ".join(
            "%s %.4g s" % (name, t["self_s"] / run.traced_rounds) for name, t in top))
    for reason in run.failures[:10]:
        print("FAILED " + reason, file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(HERE / "layers.json") as fh:
        table = json.load(fh)
    print("machine nproc=%d python=%s numpy=%s blas_threads=%s platform=%s" % (
        os.cpu_count(), platform.python_version(), np.__version__,
        os.environ["OPENBLAS_NUM_THREADS"], platform.machine()))

    scratch = ROOT / ".perfbench"
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, all_setups = {}, 0, 0, []
    for name in names:
        run, setups, refs = run_workload(name, args.seed, args.seconds,
                                         args.trace, scratch)
        values = per_layer(run, table, refs) if args.trace else end_to_end(run, setups)
        report_lines(name, run, setups, refs)
        attempted += run.attempted
        failed += len(run.failures)
        listed = spec["per_layer" if args.trace else "end_to_end"]
        if args.workload != "all":
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in listed}
            continue
        for metric, value, unit, _ in leg_metrics(run):
            metrics[metric] = {"value": value, "unit": unit}
        all_setups.extend(setups)
        if args.trace:
            metrics.update({name + "." + m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                            for m in listed})
    if args.workload == "all":
        metrics["setup_s"] = {"value": statistics.median(all_setups), "unit": "s"}
        metrics["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
