#!/usr/bin/env python3
"""Fast self-test of the benchmark: `python3 perfbench/selftest.py`.

Runs the benchmark's unit tests, then every workload at a tiny size,
untraced and traced, and checks that each run prints every metric named
in BENCHMARK.json with a finite value and its unit, passes its output
checks and stamps its record with provenance. Last, it checks that a
wrong expected digest fails the run: nonzero exit, `correct` false and
every operation counted as failed. Exits nonzero on the first problem.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
PROVENANCE = ["git_rev", "source_sha256", "rustc", "cpu_model", "cpus"]


def run(workload, trace, *extra):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"{workload} trace={trace}: no result (exit {out.returncode})\n{out.stderr}")
    return out.returncode, json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_result(label, result, catalog):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in catalog}, \
        f"{label}: metric names differ from BENCHMARK.json"
    for m in catalog:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        v = got["value"]
        assert isinstance(v, (int, float)) and math.isfinite(v), f"{label}: {m['name']} = {v}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, check=True,
        env=dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
    )
    for w in bench["workloads"]:
        for trace, catalog in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{w['name']} trace={trace}"
            code, record, result = run(w["name"], trace)
            assert code == 0, f"{label}: exit {code}"
            check_result(label, result, catalog)
            machine = record["provenance"]["machine"]
            for key in PROVENANCE:
                assert key in machine, f"{label}: provenance lacks {key}"
            for key in ("nproc", "seed", "scale", "workload"):
                assert key in record["provenance"], f"{label}: provenance lacks {key}"
            assert "threads" in record, f"{label}: record lacks threads"
            if trace == 1:
                assert record["unattributed"], f"{label}: no unattributed spans named"
            print(f"ok  {label}")

    _, record, _ = run("probe-quick", 0)
    good = record["digest"]
    code, _, result = run("probe-quick", 0, "--expect-digest", good)
    assert code == 0 and result["correct"], "the run's own digest must pass"
    wrong = format(int(good, 16) ^ 1, "016x")
    code, record, result = run("probe-quick", 0, "--expect-digest", wrong)
    assert code != 0, "a wrong digest must exit nonzero"
    assert result["correct"] is False, "a wrong digest must read correct=false"
    assert result["failed"] == result["attempted"] >= 1, "a failed check fails every operation"
    assert record["failures"], "the record must name the failed check"
    print("ok  a wrong pinned digest is reported as a failure")


if __name__ == "__main__":
    main()
