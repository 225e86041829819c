#!/usr/bin/env python3
"""Builds and runs the MVQ benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare A.json B.json

The first form builds `perfbench/` (release, offline) and runs one
workload. The workload's latency limit and offered rate are read from
its `why` line in BENCHMARK.json (`slo=<ms>ms`, `rate=<n>/s`), so that
file is their single source. The last stdout line is the JSON result; a
full record with the host stamp lands in `.bench_out/results/`.

The second form compares two such records and refuses (exit 3) when
their host stamps differ.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def workload_params(workload):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    for w in bench.get("workloads", []):
        if w.get("name") == workload:
            why = w.get("why", "")
            slo = re.search(r"slo=([0-9.]+)ms", why)
            rate = re.search(r"rate=([0-9.]+)/s", why)
            args = []
            if slo:
                args += ["--slo-ms", slo.group(1)]
            if rate:
                args += ["--rate", rate.group(1)]
            return args
    fail(f"workload {workload!r} is not in BENCHMARK.json")


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    skip = {"target", ".bench_build", ".bench_out", ".git"}
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for fp in files:
            h.update(os.path.relpath(fp, ROOT).encode())
            with open(fp, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def compare(paths):
    if len(paths) != 2:
        fail("compare needs two result records")
    a, b = (json.load(open(p)) for p in paths)
    if a.get("host") != b.get("host"):
        diff = sorted(k for k in set(a.get("host", {})) | set(b.get("host", {}))
                      if a.get("host", {}).get(k) != b.get("host", {}).get(k))
        fail(f"refusing to compare results from different hosts (differs: {', '.join(diff)})", 3)
    print(f"{'metric':<32} {'A':>14} {'B':>14} {'B/A':>8}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:<32} {ma['value']:>14.4f} {mb['value']:>14.4f} {ratio:>8.3f}  {ma['unit']}")
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if "--workload" not in argv:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    workload = argv[argv.index("--workload") + 1]
    extra = workload_params(workload)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                            "--manifest-path", manifest], stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "mvq-perfbench")
    cmd = [binary] + argv + extra + ["--git-commit", git_commit(),
                                     "--source-digest", source_digest()]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
