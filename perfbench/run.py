#!/usr/bin/env python3
"""Build and run the tutordsm wall-clock benchmark.

    python3 perfbench/run.py --workload kv-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the benchmark (Release) under .bench_build/perfbench; later calls
rebuild only what changed. The program prints every metric it computed;
this script keeps the ones BENCHMARK.json lists (end-to-end with --trace 0,
per-layer with --trace 1), adds their units, and prints one JSON object as
the last stdout line: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the spans of the last traced trial are written as Chrome-trace JSON
next to the build (.bench_build/perfbench/trace-<workload>-seed<seed>.json).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("kv-zipf", "sor-hlrc", "migrate-udp")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    """BENCHMARK.json: the single list of reported metrics and their units."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {ROOT / 'BENCHMARK.json'}: {err}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)


def code_id():
    """The git commit when run from a clone, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False)
            if out.returncode == 0 and out.stdout.strip():
                return "git-" + out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def clean_env():
    # Runtime overrides (transport, fault engine, app threads) would change
    # what is measured; the benchmark always runs the library defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith(("TUTORDSM_", "DSM_"))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true", help="build and run the self-tests")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    spec = load_spec()
    build()
    if args.selftest:
        sys.exit(subprocess.run([str(BUILD / "perfbench_selftest")], env=clean_env()).returncode)

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--commit", code_id()]
    if args.trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=clean_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode or 1)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        raw = {}
    if set(raw) != {"correct", "attempted", "failed", "values"}:
        sys.stderr.write(proc.stdout)
        fail("malformed result line", 5)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in raw["values"]]
    if missing:
        fail("metrics listed in BENCHMARK.json but not computed: " + ", ".join(missing), 6)
    metrics = {m["name"]: {"value": raw["values"][m["name"]], "unit": m["unit"]} for m in listed}
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
