#!/usr/bin/env python3
"""End-to-end benchmark of the SIMTY simulator: build, run, report, compare.

One workload, one process (the form BENCHMARK.json's command takes):

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

  Builds bench_e2e into build-e2e/ (configure once, then incremental), runs
  W, prints `workload metric value unit` lines and, as the last line, one
  JSON object {"correct", "attempted", "failed", "metrics"} holding the
  end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).

Every workload, untraced and traced, each in its own process:

    python3 bench/e2e/run.py [--seed N] [--seconds S] [--trace-dir DIR]
                             [--out FILE] [--quick]

  Also checks that each traced pass reproduced the untraced output digest
  and writes every result to --out (default build-e2e/results.json).

    python3 bench/e2e/run.py --compare A.json B.json

  Compares two --out files metric by metric against BENCHMARK.json's
  bounds; exact metrics and digests must be identical. Exits 1 on a breach.

    python3 bench/e2e/run.py --self-test [--binary PATH]

  Quick run of every workload asserting that every BENCHMARK.json metric is
  printed, then a run against a planted wrong golden digest that must fail.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
GOLDEN = HERE / "golden_digests.txt"
DEFAULT_SECONDS = 20
QUICK_SECONDS = 1
# Per process; the contract for one benchmark run is 180 s.
PROCESS_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures build-e2e once, then builds bench_e2e incrementally. A lock
    keeps concurrent invocations from building over each other."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                        "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    return BUILD / "bench_e2e"


def run_workload(binary, workload, seed, seconds, trace, trace_out=None,
                 golden=GOLDEN):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--golden", str(golden)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload}: bench_e2e exited {proc.returncode}")
    return proc.returncode, json.loads(lines[-1])


def metric_line(workload, name, m):
    line = f"{workload} {name} {m['value']:.6g} {m['unit']}"
    if "percentile" in m:
        line += f" (p{m['percentile']} of {m['samples']} samples)"
    elif "samples" in m:
        line += f" (over {m['samples']} ops)"
    return line


def select_metrics(result, listed):
    """The listed metrics of a bench_e2e result, checked for name and unit."""
    selected = {}
    for spec in listed:
        m = result["metrics"].get(spec["name"])
        if m is None or m["value"] is None:
            raise RuntimeError(f"{result['workload']}: metric {spec['name']} missing")
        if m["unit"] != spec["unit"]:
            raise RuntimeError(f"{result['workload']}: {spec['name']} in {m['unit']}, "
                               f"BENCHMARK.json says {spec['unit']}")
        selected[spec["name"]] = m
    return selected


def print_result(result, listed, spec):
    """Prints the listed metrics, then those bench_e2e reports that no
    BENCHMARK.json list names (the tail percentile, raw host numbers)."""
    workload = result["workload"]
    for name, m in select_metrics(result, listed).items():
        print(metric_line(workload, name, m))
    named = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in result["metrics"].items():
        if name not in named:
            print(metric_line(workload, name, m) + " [not in BENCHMARK.json]")
    print(f"{workload} failed_frac {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} {result['item']})")
    print(f"{workload} digest {result['prefix_digest']} "
          f"(at seed 1: {result['seed1_digest']}, checked against golden_digests.txt)")


def single(args):
    spec = benchmark_spec()
    binary = build()
    trace_out = None
    if args.trace:
        (BUILD / "traces").mkdir(exist_ok=True)
        trace_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
    code, result = run_workload(binary, args.workload, args.seed, args.seconds,
                                args.trace, trace_out)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print_result(result, listed, spec)
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in select_metrics(result, listed).items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return code


def run_all(args, binary=None):
    spec = benchmark_spec()
    binary = binary or build()
    seconds = args.seconds or (QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    trace_dir = Path(args.trace_dir) if args.trace_dir else BUILD / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    results = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        code_u, untraced = run_workload(binary, name, args.seed, seconds, False)
        code_t, traced = run_workload(binary, name, args.seed, seconds, True,
                                      trace_dir / f"{name}.json")
        print_result(untraced, spec["end_to_end"], spec)
        print_result(traced, spec["per_layer"], spec)
        for span, s in traced.get("spans", {}).items():
            print(f"{name} span {span} count {s['count']} median {s['median_us']:.6g} us "
                  f"self {s['self_us'] / 1e3:.6g} ms")
        if untraced["prefix_digest"] != traced["prefix_digest"]:
            log(f"error: {name}: traced digest {traced['prefix_digest']} != untraced "
                f"{untraced['prefix_digest']}")
            ok = False
        ok = ok and code_u == 0 and code_t == 0
        results["workloads"][name] = {"untraced": untraced, "traced": traced}
    out = Path(args.out) if args.out else BUILD / "results.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    log(f"wrote {out}; traces in {trace_dir}")
    return 0 if ok else 1


def compare(path_a, path_b):
    spec = benchmark_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    breaches = 0
    for workload in a:
        if workload not in b:
            print(f"{workload}: missing from {path_b}")
            breaches += 1
            continue
        for phase in ("untraced", "traced"):
            ra, rb = a[workload][phase], b[workload][phase]
            if ra["prefix_digest"] != rb["prefix_digest"] and ra["seed"] == rb["seed"]:
                print(f"{workload} {phase} digest {ra['prefix_digest']} -> "
                      f"{rb['prefix_digest']}  BREACH")
                breaches += 1
            for name, ma in ra["metrics"].items():
                mb = rb["metrics"].get(name)
                if mb is None:
                    print(f"{workload} {name}: missing  BREACH")
                    breaches += 1
                    continue
                va, vb = ma["value"], mb["value"]
                if ma["exact"]:
                    verdict = "identical" if va == vb else "CHANGED  BREACH"
                    breaches += va != vb
                elif name in bounds and va:
                    bound = bounds[name]["bound"]
                    worse = (vb - va) / va
                    if bounds[name]["better"] == "higher":
                        worse = -worse
                    if worse > bound:
                        verdict = f"worse by {worse:.1%} > {bound:.0%}  BREACH"
                        breaches += 1
                    elif worse < -bound:
                        verdict = f"better by {-worse:.1%}"
                    else:
                        verdict = f"within {bound:.0%} ({-worse:+.1%})"
                else:
                    verdict = "no bound"
                print(f"{workload} {name} {va:.6g} -> {vb:.6g} {ma['unit']}  {verdict}")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


def self_test(binary):
    binary = Path(binary) if binary else build()
    spec = benchmark_spec()
    with tempfile.TemporaryDirectory(dir=binary.parent) as tmp:
        args = argparse.Namespace(seed=1, seconds=QUICK_SECONDS, quick=True,
                                  trace_dir=tmp, out=str(Path(tmp) / "results.json"))
        if run_all(args, binary) != 0:
            log("self-test: quick run failed")
            return 1
        results = json.loads(Path(args.out).read_text())["workloads"]
        for w in spec["workloads"]:
            select_metrics(results[w["name"]]["untraced"], spec["end_to_end"])
            select_metrics(results[w["name"]]["traced"], spec["per_layer"])
        wrong = Path(tmp) / "wrong_golden.txt"
        wrong.write_text("".join(f"{w['name']} 0000000000000000\n"
                                 for w in spec["workloads"]))
        code, result = run_workload(binary, "paging-3h", 1, QUICK_SECONDS, False,
                                    golden=wrong)
        if code == 0 or result["failed"] == 0 or result["correct"]:
            log("self-test: a wrong golden digest did not fail the run")
            return 1
    log("self-test: ok")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", default=None,
                   help="0|1 with --workload; omit when running every workload")
    p.add_argument("--trace-dir")
    p.add_argument("--out")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--binary")
    args = p.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.self_test:
            return self_test(args.binary)
        if args.workload:
            if args.trace not in ("0", "1") or args.seconds is None:
                p.error("--workload needs --seconds and --trace 0|1")
            args.trace = args.trace == "1"
            return single(args)
        return run_all(args)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
