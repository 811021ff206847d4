"""qprep3 benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload haar_general --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src. One
process, one thread, closed loop: the next operation starts when the previous
one returns. The workload's inputs are made from --seed alone. Every output
is checked by the independent oracle in oracle.py (first pass over the
inputs) or compared with the first pass's output (later passes).

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass,
then alternates untraced and traced passes for --seconds, and prints the
per-layer metrics. The metric names and units are read from BENCHMARK.json.
The last stdout line is the result JSON; the line before it holds the run's metadata.

End-to-end times are calibrated. Shared machines drift in speed by 20-40%
over seconds to minutes. A fixed reference runs between operations, and each
operation time is scaled by (the reference's nominal time) / (its time
measured around the operation). In-process operations use a fixed loop of
interpreter work and small numpy calls every CAL_EVERY_S seconds; process start-up does not follow that loop, so CLI
calls and setup_s use a bare interpreter start next to each call instead.
The uncalibrated figures are in the metadata.
"""
import argparse
import array
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import spans
from workloads import WORKLOADS, Cli, Result, call, verify

SETUP_ROUNDS = 9
WARMUP_OPS = 20
CAL_EVERY_S = 0.1  # seconds of operations between two reference samples
CAL_REPS = 3
# median reference_loop() time on the 2-vCPU Xeon VM the benchmark was tuned on,
# in its usual (slower) state; it only sets the scale of calibrated times
REF_NOMINAL_S = 1.1e-3
# median bare `python -c pass` time on the same VM; sets the scale of setup_s
# and of cli_oneshot times
INTERP_NOMINAL_S = 0.07
# percentiles recorded in the metadata beside the fixed tail percentile
LADDER = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0]
MIN_ABOVE = 10  # samples a run keeps above its tail percentile

ERROR_CLASSES = [
    "ZeroPairError", "SingularInputError", "NonSingularInputError", "ZeroMatrixError", "BadShapeError",
    "SingularPencilCoefficientError", "NotNormalizedError", "NotRealError", "SynthesisInvariantError",
]
SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import qprep3; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


REF_MATRIX = np.kron(np.eye(2), np.kron(np.array([[0.6, 0.8j], [0.8j, 0.6]]), np.eye(2)))
REF_VECTOR = np.full(8, 8 ** -0.5, dtype=np.complex128)


def reference_loop():
    """Fixed work whose speed follows the machine's, not the program's.

    It mixes interpreter work with small numpy calls, as the workloads do:
    a pure-Python loop alone tracked the machine's drift worse than no
    calibration at all on some runs.
    """
    z = 0.3 + 0.1j
    s = 0.0
    for i in range(1500):
        z = z * z * 0.5 + complex(i, 1) * 1e-4
        s += abs(z)
    v = REF_VECTOR
    for _ in range(20):
        v = REF_MATRIX @ v
        s += float(np.linalg.norm(v)) + abs(complex(np.vdot(v, REF_VECTOR)))
        w = v.reshape(2, 4)
        s += abs(complex(w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]))
    return s


class Calibration:
    """Timings of a fixed reference taken between operations during one run."""

    def __init__(self, reference, nominal_s, every_s, reps):
        self.reference, self.nominal_s, self.every_s, self.reps = reference, nominal_s, every_s, reps
        self.points = []  # median reference time of each sample
        self.last = time.perf_counter()

    def sample(self):
        times = []
        for _ in range(self.reps):
            t0 = time.perf_counter()
            self.reference()
            times.append(time.perf_counter() - t0)
        self.points.append(statistics.median(times))
        self.last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self.last >= self.every_s:
            self.sample()

    def segment(self):
        """Tag for work starting now: it lies between the last sample and the next."""
        return len(self.points)

    def factor(self, segment=None):
        """Multiply a time measured in `segment` (default: the whole run) by this."""
        if segment is None:
            return self.nominal_s / statistics.median(self.points)
        return self.nominal_s / statistics.fmean(self.points[max(segment - 1, 0): segment + 1])


def measure_setup(python, env):
    """Medians over fresh interpreters: bare start, and start plus `import qprep3`.

    calibrated_setup_s is the median over rounds of (start plus import) /
    (bare start of the same round), times INTERP_NOMINAL_S.
    """
    subprocess.run([python, "-c", SETUP_PROBE], env=env, check=True, capture_output=True)  # fill pyc caches
    interp, full, numpy_s, qprep3_s = [], [], [], []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, check=True)
        t1 = time.perf_counter()
        out = subprocess.run([python, "-c", SETUP_PROBE], env=env, check=True, capture_output=True, text=True)
        t2 = time.perf_counter()
        interp.append(t1 - t0)
        full.append(t2 - t1)
        a, b = out.stdout.split()
        numpy_s.append(float(a))
        qprep3_s.append(float(b))
    med = statistics.median
    return {"setup_s": med(full), "interp_s": med(interp), "import_numpy_s": med(numpy_s),
            "import_qprep3_s": med(qprep3_s),
            "calibrated_setup_s": med(f / i for f, i in zip(full, interp)) * INTERP_NOMINAL_S}


class Loop:
    """Closed-loop runner over a workload's inputs; pass 1 is oracle-checked."""

    def __init__(self, q, ops, cli, cal):
        self.q, self.ops, self.cli, self.cal = q, ops, cli, cal
        self.first = []  # Result of each input on the first pass
        self.exit_nonzero = 0
        self.tracebacks = 0

    def warm_up(self):
        for op in self.ops[: (2 if self.cli else WARMUP_OPS)]:
            try:
                call(self.q, op, self.cli)
            except Exception:  # failures are counted in the measured passes
                pass

    def one(self, i):
        """Run input i once: (seconds, verified?)."""
        op = self.ops[i]
        first_pass = len(self.first) == i
        t0 = time.perf_counter()
        try:
            raw = call(self.q, op, self.cli)
        except Exception as exc:  # every failure is counted by class, none stops the run
            elapsed = time.perf_counter() - t0
            res = Result(type(exc).__name__, f"ERR {type(exc).__name__}")
        else:
            elapsed = time.perf_counter() - t0
            res = verify(op, raw, first_pass)
            if first_pass and op.kind == "cli":
                self.exit_nonzero += raw[0] != 0
                self.tracebacks += "Traceback" in raw[2]
        if first_pass:
            self.first.append(res)
            return elapsed, res.reason is None
        return elapsed, self.first[i].reason is None and res.key == self.first[i].key

    def run(self, seconds, least=0, before_op=None, after_op=None):
        """One whole pass, then more until `seconds` have passed and at least `least`
        operations are done: (latencies, ok count, ops done).

        self.segments gets each latency's calibration segment.
        """
        lat = array.array("d")
        self.segments = array.array("l")
        ok = done = 0
        n = len(self.ops)
        deadline = time.perf_counter() + seconds
        while done < max(n, least) or time.perf_counter() < deadline:
            i = done % n
            if before_op:
                before_op(i)
            self.segments.append(self.cal.segment())
            elapsed, good = self.one(i)
            if after_op:
                after_op(i)
            self.cal.maybe_sample()
            lat.append(elapsed)
            ok += good
            done += 1
        return lat, ok, done


def min_ops(pct):
    """Samples a run needs so that MIN_ABOVE of them lie above the pct-th percentile."""
    return math.ceil(MIN_ABOVE * 100 / (100 - pct)) + 1


def tail(lat, pct):
    """(pct-th percentile of lat, number of samples above it)."""
    xs = np.asarray(lat)
    value = float(np.percentile(xs, pct))
    return value, int(np.sum(xs > value))


def exact_summary(loop):
    """First-pass figures that repeat exactly for a given seed."""
    first = loop.first
    verified = [r for r in first if r.reason is None]
    digest = hashlib.sha256()
    for r in first:
        digest.update(r.key.encode() + b"\n\0")
    failures = Counter(r.reason for r in first if r.reason is not None)
    by_family = Counter(op.family for op, r in zip(loop.ops, first) if r.reason is not None and op.family)
    return {
        "ops_per_pass": len(first),
        "verified": len(verified),
        "ok_share": len(verified) / len(first),
        "cz_mean": statistics.fmean(r.cz for r in verified) if verified else 0.0,
        "gates_mean": statistics.fmean(r.gates for r in verified) if verified else 0.0,
        "failures_by_class": dict(sorted(failures.items())),
        "failures_by_family": dict(sorted(by_family.items())),
        "digest": digest.hexdigest(),
    }


def run_untraced(loop, workload, seconds):
    loop.warm_up()
    lat, ok, done = loop.run(seconds, min_ops(workload.tail_pct))
    summary = exact_summary(loop)
    loop.cal.sample()
    factors = {seg: loop.cal.factor(seg) for seg in set(loop.segments)}
    scaled = [t * factors[seg] for t, seg in zip(lat, loop.segments)]
    pct = workload.tail_pct
    value, above = tail(scaled, pct)
    if above < MIN_ABOVE:
        raise SystemExit(f"error: only {above} of {len(scaled)} samples above p{pct:g}; need {MIN_ABOVE}")
    peak_kb = loop.cli.maxrss_kb if loop.cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {"ok_per_s": ok / sum(lat), "p50_ms": statistics.median(lat) * 1e3,
           "tail_ms": tail(lat, pct)[0] * 1e3}
    metrics = {
        "ok_per_s": ok / sum(scaled),
        "p50_ms": statistics.median(scaled) * 1e3,
        "tail_ms": value * 1e3,
        "ok_share": summary["ok_share"],
        "cz_mean": summary["cz_mean"],
        "gates_mean": summary["gates_mean"],
        "peak_rss_mb": peak_kb / 1024.0,
    }
    ladder = {f"p{p:g}_ms": float(np.percentile(scaled, p)) * 1e3 for p in LADDER}
    meta = dict(summary, attempted=done, samples=len(lat), tail_percentile=pct, tail_samples_above=above,
                uncalibrated=raw, calibrated_percentiles=ladder)
    return metrics, meta, done, done - ok


def run_traced(loop, seconds, q, workdir):
    """Per-layer figures from the spans of traced passes.

    The first pass runs untraced and is oracle-checked. Untraced and traced
    passes then alternate until `seconds` have passed, so the two rates that
    give the tracing overhead see the same machine speed.
    """
    loop.warm_up()
    _, ok, attempted = loop.run(0)
    failed = attempted - ok
    summary = exact_summary(loop)

    tracer = spans.Tracer()
    child = (os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py"),
             os.path.join(workdir, "child-spans.json"))

    def before_op(i):
        tracer.op = i

    def collect_child_spans(i):
        with open(child[1], encoding="utf-8") as fh:
            recorded = json.load(fh)
        base = len(tracer.spans)
        for name, start, end, parent, _ in recorded["spans"]:
            tracer.spans.append([name, start, end, parent + base if parent >= 0 else -1, i])
        tracer.branches.update(recorded["branches"])

    rates = {"untraced": [], "traced": []}
    passes = []  # per traced pass: {name: [calls, self seconds]}
    first = None  # spans and branch counts of the first traced pass
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        lat, ok, done = loop.run(0)
        rates["untraced"].append(ok / sum(lat))
        attempted, failed = attempted + done, failed + done - ok
        tracer.install(q)
        if loop.cli:
            loop.cli.traced_child = child
        try:
            lat, ok, done = loop.run(0, 0, before_op, collect_child_spans if loop.cli else None)
        finally:
            tracer.uninstall()
            if loop.cli:
                loop.cli.traced_child = None
        rates["traced"].append(ok / sum(lat))
        attempted, failed = attempted + done, failed + done - ok
        recorded, branches = tracer.take()
        passes.append(spans.aggregate(recorded))
        first = first or (recorded, branches)
    spans.write_spans(os.path.join(workdir, "spans.tsv"), first[0])

    n_ops = summary["ops_per_pass"]
    counts = passes[0]
    m = {}
    for name in spans.SPAN_NAMES:
        m[f"{name}.calls"] = counts.get(name, [0, 0.0])[0]
        m[f"{name}.self_s"] = statistics.median(p.get(name, [0, 0.0])[1] for p in passes)
    m["state.validate.per_op"] = m["state.validate.calls"] / n_ops
    m["circuit.apply_gate.per_op"] = m["circuit.apply_gate.calls"] / n_ops
    branches = first[1]
    for label in spans.BRANCH_LABELS:
        m[f"synth.branch.{spans.branch_metric(label)}.count"] = branches.pop(label, 0)
    m["synth.branch.other.count"] = sum(branches.values())
    failures = Counter(summary["failures_by_class"])
    m["oracle.reject.count"] = sum(v for k, v in failures.items() if k.startswith("oracle:"))
    for cls in ERROR_CLASSES:
        m[f"synth.error.{cls}.count"] = failures.pop(cls, 0)
    m["synth.error.other.count"] = sum(v for k, v in failures.items() if not k.startswith("oracle:"))
    m["synth.ok_ratio"] = summary["ok_share"]
    m["cli.exit_nonzero.count"] = loop.exit_nonzero
    m["cli.traceback.count"] = loop.tracebacks
    m["trace.ok_per_s"] = statistics.median(rates["traced"])
    m["trace.untraced_ok_per_s"] = statistics.median(rates["untraced"])
    meta = dict(summary, attempted=attempted, traced_passes=len(passes),
                tracing_overhead=m["trace.untraced_ok_per_s"] / m["trace.ok_per_s"],
                other_branches=dict(branches))
    return m, meta, attempted, failed


def provenance(root, src):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(src, "qprep3")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "src_digest": digest.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qprep3", "__init__.py")):
        print(f"error: no qprep3 package under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import qprep3 as q

    if not os.path.realpath(q.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"error: imported qprep3 from {q.__file__}, not from {src}", file=sys.stderr)
        return 2

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    outdir = os.path.join(root, ".perfbench_out")
    workdir = os.path.join(outdir, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    python = sys.executable

    setup = measure_setup(python, env)
    ops = workload.build(args.seed, workdir, workload.size)
    if ops[0].kind == "cli":
        cli = Cli(python, env, workdir)
        cal = Calibration(lambda: subprocess.run([python, "-c", "pass"], env=env, check=True),
                          INTERP_NOMINAL_S, 0.0, 1)
    else:
        cli = None
        cal = Calibration(reference_loop, REF_NOMINAL_S, CAL_EVERY_S, CAL_REPS)
    cal.sample()
    loop = Loop(q, ops, cli, cal)

    if args.trace:
        metrics, meta, attempted, failed = run_traced(loop, args.seconds, q, workdir)
        metrics["setup.interp_s"] = setup["interp_s"]
        metrics["setup.import_numpy_s"] = setup["import_numpy_s"]
        metrics["setup.import_qprep3_s"] = setup["import_qprep3_s"]
    else:
        metrics, meta, attempted, failed = run_untraced(loop, workload, args.seconds)
        metrics["setup_s"] = setup["calibrated_setup_s"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: BENCHMARK.json lists metrics this run does not make: {missing}", file=sys.stderr)
        return 2

    gated = any(w["name"] == workload.name for w in bench["workloads"])
    meta.update(
        workload=workload.name, why=workload.why, gated=gated, seed=args.seed, seconds=args.seconds,
        trace=args.trace, python=platform.python_version(), numpy=np.__version__, nproc=os.cpu_count(), kernel_backend=q.kernel_backend, setup=setup, **provenance(root, src),
        calibration={"factor": cal.factor(), "reference_median_s": statistics.median(cal.points),
                     "samples": len(cal.points), "nominal_s": cal.nominal_s,
                     "reference": "bare interpreter start" if cli else "reference_loop"},
    )
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
