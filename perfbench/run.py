#!/usr/bin/env python3
"""Builds BLOT's benchmark from source and runs one workload.

    python3 perfbench/run.py --workload since_t --seed 1 --seconds 28 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and store files to .bench_data, both under the
root. Build output goes to standard error. Standard output is the
benchmark's report; its last line is the JSON result, restricted to the
metrics BENCHMARK.json lists (`end_to_end` with --trace 0, `per_layer`
with --trace 1). The exit code is non-zero on a build failure, a wrong
answer, a failed request or a listed metric the run did not measure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def listed_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main():
    traced = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1:][:1] == ["1"]
    names = listed_metrics(traced)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    args = [exe, *sys.argv[1:], "--commit", commit(), "--data-dir", os.path.join(ROOT, ".bench_data")]
    run = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(run.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return run.returncode or 1
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        sys.stdout.write(run.stdout)
        print(f"perfbench: listed metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
