#!/usr/bin/env python3
"""End-to-end benchmark of miniGiraffe-rs.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package (this
directory) and the `minigiraffe` binary from source, generates the
workload's inputs from the seed, measures, checks every correctness gate,
prints each metric with its unit, a provenance line, and, last, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. Exits non-zero when a gate fails or anything goes wrong.

Build outputs go to $CARGO_TARGET_DIR (default .bench_build) and the
generated inputs to .bench_work/, both under the repository root; the
inputs are deleted when the run ends.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run must end within 180 s once built; leave room for clean-up.
RUN_TIMEOUT_S = 170
SOURCE_PATHS = ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "benchmark"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(env):
    """Builds the benchmark package and the program's own binary."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "Cargo.toml"), "--bin", "minigiraffe"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"error: build failed: {' '.join(cmd)}")


def run_group(cmd, env, timeout):
    """Runs cmd in its own process group, so a timeout also stops any
    server it started; returns its stdout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"error: timed out after {timeout} s: {' '.join(cmd)}")
    finally:
        # Whatever happened, nothing the benchmark started outlives it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"error: exit code {proc.returncode}: {' '.join(cmd)}")
    return out.decode()


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the sources the program and benchmark build from, so a
    result names the code that produced it even outside a git checkout."""
    h = hashlib.sha256()
    files = []
    for rel in SOURCE_PATHS:
        p = ROOT / rel
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            files.extend(f for f in p.rglob("*") if f.is_file() and "target" not in f.parts)
    for f in sorted(files):
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def pinned_digest(workload, seed):
    table = json.loads((BENCH_DIR / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        log(f"error: {ROOT} holds no miniGiraffe-rs sources to build")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log(f"error: unknown workload {args.workload!r}; expected one of {workloads}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(env)
    bench = target / "release" / "mg-e2e-bench"
    server = target / "release" / "minigiraffe"

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run_group([str(bench), "gen", "--workload", args.workload, "--seed", str(args.seed),
                   "--dir", str(work)], env, RUN_TIMEOUT_S)
        out = run_group([str(bench), "run", "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--dir", str(work),
                         "--server", str(server)], env, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = json.loads(out.strip().splitlines()[-1])

    gates = report["gates"]
    pinned = pinned_digest(args.workload, args.seed)
    digest = report["provenance"]["oracle_gaf_digest"]
    if pinned is not None:
        gates.append({"name": "gaf.pinned_digest", "ok": digest == pinned,
                      "detail": f"oracle GAF {digest} vs recorded {pinned} for seed {args.seed}"})
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        ok = got is not None and got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        gates.append({"name": f"metric.{m['name']}", "ok": ok, "detail": "reported with its unit"})
        if ok:
            metrics[m["name"]] = got
    correct = report["failed"] == 0 and all(g["ok"] for g in gates)

    for g in gates:
        if not g["ok"]:
            log(f"FAILED gate {g['name']}: {g['detail']}")
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:>16.6g} {m['unit']}")
    fail_frac = report["failed"] / max(report["attempted"], 1)
    print(f"{'fail_frac':<32} {fail_frac:>16.6g} fraction ({report['failed']}/{report['attempted']})")
    provenance = dict(report["provenance"], git_rev=git_rev(), source_digest=source_digest())
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
