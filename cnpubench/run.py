#!/usr/bin/env python3
"""Builds the cnpu benchmark from source and runs one workload.

Usage, from the repository root:

    python3 cnpubench/run.py --workload <dse_cold|sim_warm|serving_openloop> \\
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and compiles cnpubench/ (and the library under
src/) into $CARGO_TARGET_DIR/cnpubench, or .bench_build/cnpubench when that
variable is unset; later runs only rebuild what changed. The benchmark's
standard output is passed through once its last line, the result object,
has been checked against BENCHMARK.json: every metric the run mode promises
(end_to_end with --trace 0, per_layer with --trace 1) must be present with
its declared unit, and nothing else. Exits non-zero, without a result line,
when the build fails or the result breaks that contract.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"cnpubench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "cnpubench")


def build(out):
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(out, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "cnpubench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "cnpubench")


def flag(argv, name):
    for i, arg in enumerate(argv[:-1]):
        if arg == name:
            return argv[i + 1]
    return None


def check_result(line, trace):
    """Returns an error string when the result line breaks the contract."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(want) - set(metrics))
    extra = sorted(set(metrics) - set(want))
    if missing or extra:
        return f"metrics missing {missing}, undeclared {extra}"
    for name, unit in want.items():
        if metrics[name].get("unit") != unit:
            return f"{name} has unit {metrics[name].get('unit')}, declared {unit}"
    return None


def main():
    argv = sys.argv[1:]
    out = build_dir()
    binary = build(out)
    workload = flag(argv, "--workload") or "unknown"
    seed = flag(argv, "--seed") or "0"
    trace_file = os.path.join(out, f"trace-{workload}-{seed}.json")
    proc = subprocess.run([binary, *argv, "--trace-out", trace_file],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], flag(argv, "--trace")) if lines[-1] else "no output"
    if error is not None:
        print("\n".join(lines[:-1]))
        fail(f"result breaks the BENCHMARK.json contract: {error}")
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
