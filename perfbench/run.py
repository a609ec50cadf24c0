#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload probe-quick|scenario-mix|agent-poll \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Builds the `perfbench` package (its own Cargo workspace, path
dependencies on `crates/`) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the given arguments. Build
output goes to stderr; the benchmark's stdout passes through, ending in
the result line. Traced runs also write their spans, one JSON object
per line, under `<target dir>/perfbench-spans/`.

Machine provenance (git revision, a hash of the sources, `rustc -V`,
CPU model, hardware threads) is handed to the benchmark, which stamps
it on its record line. Exits 2 without a result when the repository
sources or the toolchain are missing.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "perfbench/Cargo.toml", "perfbench/src"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def command_output(args):
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def source_sha256():
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names
        ]
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unavailable"


def arg_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    for needed in ("Cargo.toml", "crates/cdn/Cargo.toml", "crates/core/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"the repository sources are missing ({needed}); run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    env["PERFBENCH_PROVENANCE"] = json.dumps({
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_sha256(),
        "rustc": command_output(["rustc", "-V"]),
        "cpu_model": cpu_model(),
        "cpus": os.cpu_count(),
        "profile": "release, lto=fat, codegen-units=1",
    })
    command = [os.path.join(target, "release", "perfbench"), *args]
    if arg_value(args, "--trace") == "1":
        name = f"{arg_value(args, '--workload')}-seed{arg_value(args, '--seed')}.jsonl"
        command += ["--spans-out", os.path.join(target, "perfbench-spans", name)]
    sys.exit(subprocess.run(command, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
