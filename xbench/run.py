#!/usr/bin/env python3
"""Builds and runs the xjoin repository benchmark (xbench).

    python3 xbench/run.py --workload wcoj-warm --seed 1 --seconds 10 --trace 0
    python3 xbench/run.py --smoke

Run it from anywhere inside a checkout. The first run configures and
builds xbench, with the repository's own libraries, under .bench_build/
at the checkout root; later runs rebuild only what changed. Build output
goes to standard error. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it is the
host fingerprint. A traced run (--trace 1) also writes its spans to
.bench_build/traces/<workload>.spans.jsonl.

--smoke runs every workload at a tiny size on two seeds, untraced and
traced, and checks that every answer matched its digest and that every
metric BENCHMARK.json names was reported.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "xbench")
WORKLOADS = ("wcoj-warm", "adhoc-cold", "serve-mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds xbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no xjoin sources next to " + HERE)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "xbench"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "xbench")


def run(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (exit code, fingerprint line, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    if trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("unexpected result keys: %s" % sorted(result))
    return proc.returncode, lines[-2], result


def expected_metrics():
    """Metric names BENCHMARK.json promises, by trace mode (or None)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}


def smoke(binary):
    expected = expected_metrics()
    ok = True
    for workload in WORKLOADS:
        for seed, traces in ((1, (0, 1)), (2, (0, 1))):
            for trace in traces:
                code, _, result = run(binary, workload, seed, 1, trace,
                                      tiny=True)
                good = code == 0 and result is not None and result["correct"]
                if good and expected is not None:
                    missing = expected[trace] - set(result["metrics"])
                    if missing:
                        log("%s: missing metrics %s" % (workload,
                                                        sorted(missing)))
                        good = False
                log("smoke %-11s seed=%d trace=%d: %s" %
                    (workload, seed, trace, "ok" if good else "FAILED"))
                ok = ok and good
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    try:
        binary = build()
        if args.smoke:
            return smoke(binary)
        code, host, result = run(binary, args.workload, args.seed,
                                 args.seconds, args.trace)
    except (OSError, RuntimeError, ValueError,
            subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as error:
        log("error: %s" % error)
        return 1
    if result is None:
        log("xbench printed no result (exit code %d)" % code)
        return 1
    print(host)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
