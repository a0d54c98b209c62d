#!/usr/bin/env python3
"""Build and run the Icarus repository benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 10 --trace 0

Workloads: verify-cold, verify-incremental, vm-hot-loop, vm-fresh-code.
With --trace 0 the last line of output is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric. See
perfbench/README.md.

The script configures and builds perfbench/ (libicarus from src/ plus the
benchmark program) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the program and passes its output and
exit code through. Everything it writes stays inside the checkout.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("verify-cold", "verify-incremental", "vm-hot-loop", "vm-fresh-code")


def source_digest():
    """SHA-256 over the library and benchmark sources (paths and contents)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(build_dir):
    """Configures (once) and builds perfbench; returns the binary path or None."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(min(2, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("perfbench build failed (%s):\n%s" % (log_path, "\n".join(tail)),
                      file=sys.stderr)
                return None
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("perfbench: no Icarus source tree at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "perfbench")
    if binary is None:
        return 3

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest(),
           "--out-dir", str(ROOT / ".perfbench_out")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
