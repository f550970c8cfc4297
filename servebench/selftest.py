#!/usr/bin/env python3
"""Self-test of the served-path benchmark (not part of ctest or CI).

    python3 servebench/selftest.py

Runs every workload named in BENCHMARK.json in --quick mode, untraced and
traced, and checks that each run exits 0, that its last stdout line is a
JSON result with correct=true and failed=0, that it prints every metric
BENCHMARK.json names with that metric's unit, and that the traced run
writes a span file that parses as a chrome://tracing JSON trace.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False,
                         timeout=600)
    problems = []
    if out.returncode != 0:
        return ["exit code %d: %s" % (out.returncode, out.stderr.strip()[-500:])]
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        return ["last line is not JSON: %s" % e]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("output checks failed: correct=%s failed=%s" %
                        (result.get("correct"), result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted=%s" % result.get("attempted"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("metric %s missing" % m["name"])
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append("metric %s printed as %s, want unit %s" % (m["name"], got, m["unit"]))
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append("metrics not in BENCHMARK.json: %s" % sorted(extra))
    if trace:
        build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                 "servebench")
        path = os.path.join(build_dir, "servebench-%s.trace.json" % workload)
        try:
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            if not any(e.get("name") == "guest" for e in events):
                problems.append("span file %s has no guest spans" % path)
        except (OSError, ValueError, KeyError) as e:
            problems.append("span file %s: %s" % (path, e))
        if not any(l.startswith("self time over") for l in lines):
            problems.append("no self-time table")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, w["name"], trace)
            print("%s %s --trace %d%s" % ("FAIL" if problems else "ok  ", w["name"], trace,
                                          "".join("\n    " + p for p in problems)))
            failures += bool(problems)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
