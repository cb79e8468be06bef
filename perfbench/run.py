#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

The first form builds perfbench/perfbench.exe from source (dune, release
profile, build directory .bench_build) and runs one workload; its last
line of output is the JSON result. --quick is the self-check: every
workload at tiny sizes, untraced and traced, checking that each named
metric is printed with its unit and that no output failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ["embed-large", "serve-hot", "serve-cold", "simulate-suite"]
RUN_TIMEOUT = 175

# End-to-end metrics each workload prints under its own name, besides the
# gated ones listed in BENCHMARK.json.
SHOWN = {
    "embed-large": {"embed_knodes_per_s": "knodes/s"},
    "serve-hot": {"serve_rps": "1/s", "serve_rtt_p50_ms": "ms", "serve_rtt_p99_ms": "ms"},
    "serve-cold": {"serve_rps": "1/s", "serve_rtt_p50_ms": "ms", "serve_rtt_p99_ms": "ms"},
    "simulate-suite": {"sim_hops_per_s": "hops/s", "sim_slowdown": "ratio"},
}


def die(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} is missing under {ROOT}; run from a full checkout", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}", 1)
    if r.returncode != 0:
        die("build failed", 1)


def commit():
    """The git commit, or a digest of the library sources outside git."""
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def run_exe(args, capture):
    cmd = [EXE] + args + ["--commit", commit()]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT, text=True,
                           stdout=subprocess.PIPE if capture else None)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"run failed: {e}", 1)
    return r


def parse(out):
    """Printed metric lines and the final JSON object of one run."""
    lines = out.strip().splitlines()
    metrics = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] in ("metric", "layer"):
            metrics[parts[1]] = (float(parts[2]), parts[3])
    return metrics, json.loads(lines[-1])


def quick():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            r = run_exe(["--workload", w, "--seed", "1", "--seconds", "0.2",
                         "--trace", str(trace), "--quick"], capture=True)
            tag = f"{w} trace={trace}"
            if r.returncode != 0:
                problems.append(f"{tag}: exit {r.returncode}")
                continue
            printed, result = parse(r.stdout)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{tag}: outputs failed the check")
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if got != want[trace]:
                problems.append(f"{tag}: JSON metrics differ from BENCHMARK.json")
            need = dict(want[trace], failed_frac="ratio", fallback_rate="ratio")
            if not trace:
                need.update(SHOWN[w])
            for name, unit in need.items():
                if name not in printed:
                    problems.append(f"{tag}: {name} not printed")
                elif printed[name][1] != unit:
                    problems.append(f"{tag}: {name} printed in {printed[name][1]}, not {unit}")
            if printed.get("failed_frac", (1.0, ""))[0] != 0.0:
                problems.append(f"{tag}: failed_frac is not 0")
            if trace and "-> ok" not in r.stdout:
                problems.append(f"{tag}: layer self times do not cover the pass")
            print(f"quick {tag}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print(f"quick: {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    a = ap.parse_args()
    if not a.quick and a.workload is None:
        ap.error("--workload or --quick is required")
    build()
    if a.quick:
        quick()
    r = run_exe(["--workload", a.workload, "--seed", str(a.seed),
                 "--seconds", str(a.seconds), "--trace", str(a.trace)], capture=False)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
