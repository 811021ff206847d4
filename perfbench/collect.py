"""Run the benchmark over ten seeds and write BENCH_<label>.json.

    python3 perfbench/collect.py --label seed

Run from the repository root. For each workload (BENCHMARK.json's, plus the
ungated near_degenerate), runs seeds 1..10 with tracing off and reports each
end-to-end metric's median, quartiles and spread (interquartile distance over
the median) next to its bound. It also checks determinism (seed 1 again with
tracing off, and twice with tracing on: exact figures must match) and keeps
the traced run's per-layer metrics. It exits 1, after writing the file, if a
determinism check found a difference or a BENCHMARK.json workload was not
correct.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEEDS = list(range(1, 11))
EXACT_META = ["ops_per_pass", "verified", "ok_share", "cz_mean", "gates_mean", "failures_by_class",
              "failures_by_family", "digest"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  {workload} seed={seed} trace={trace} wall={wall:.1f}s correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    return meta, result, values, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def exact_diffs(a, b, keys):
    return {k: [a.get(k), b.get(k)] for k in keys if a.get(k) != b.get(k)}


def exact_layer_keys(values):
    return [k for k in values if k.endswith((".calls", ".count", ".per_op")) or k == "synth.ok_ratio"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    gated = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    out = {"label": args.label, "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "command": bench["command"], "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    problems = []
    for name in WORKLOADS:
        print(f"{name}:", file=sys.stderr)
        runs = [run(name, seed, seconds, 0) for seed in SEEDS]
        meta0 = runs[0][0]
        out.setdefault("meta", {k: meta0[k] for k in ("commit", "src_digest", "python", "numpy", "nproc",
                                                        "kernel_backend")})
        entry = {
            "why": WORKLOADS[name].why,
            "gated": name in gated,
            "correct": all(r[1]["correct"] for r in runs),
            "attempted": [r[1]["attempted"] for r in runs],
            "failed": [r[1]["failed"] for r in runs],
            "tail_percentile": sorted({r[0]["tail_percentile"] for r in runs}),
            "tail_samples": [r[0]["samples"] for r in runs],
            "wall_s": [round(r[3], 2) for r in runs],
            "end_to_end": {},
            "exact_seed1": {k: meta0[k] for k in EXACT_META},
        }
        for metric in runs[0][2]:
            entry["end_to_end"][metric] = spread([r[2][metric] for r in runs])
        again = run(name, 1, seconds, 0)
        t1, t2 = run(name, 1, seconds, 1), run(name, 1, seconds, 1)
        layer_keys = exact_layer_keys(t1[2])
        entry["determinism"] = {
            "trace0_seed1_diffs": exact_diffs(meta0, again[0], EXACT_META),
            "trace1_seed1_diffs": dict(exact_diffs(t1[2], t2[2], layer_keys),
                                       **exact_diffs(t1[0], t2[0], EXACT_META)),
        }
        entry["per_layer_seed1"] = t1[2]
        entry["tracing_overhead"] = t1[2]["trace.untraced_ok_per_s"] / t1[2]["trace.ok_per_s"]
        out["workloads"][name] = entry
        problems += [f"{name}: {check} differs in {sorted(diffs)}"
                     for check, diffs in entry["determinism"].items() if diffs]
        if entry["gated"] and not entry["correct"]:
            problems.append(f"{name}: not correct")
        for metric, s in entry["end_to_end"].items():
            flag = "" if s["spread"] is None or s["spread"] <= bounds[metric] / 3 else "  <-- above bound/3"
            print(f"  {metric:12s} median={s['median']:.6g} spread={s['spread']} bound={bounds[metric]}{flag}",
                  file=sys.stderr)

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
