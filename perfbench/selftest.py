"""Self-test of the benchmark: runs every workload at tiny size, traced
and untraced, and checks that each run passes its output checks and
emits exactly the metrics BENCHMARK.json names, each with its unit. It
also checks that the benchmark fails cleanly where there are no package
sources. Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def run(command: list[str], workload: str, trace: int, cwd: Path = ROOT):
    cmd = [*command, "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    last = proc.stdout.strip().splitlines()[-1]
    doc = json.loads(last)
    errors = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(doc)}")
    if doc.get("correct") is not True or doc.get("failed") != 0:
        errors.append(f"checks failed: correct={doc.get('correct')} failed={doc.get('failed')}")
    if not isinstance(doc.get("attempted"), int) or doc["attempted"] < 1:
        errors.append(f"attempted={doc.get('attempted')}")
    metrics = doc.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if name in expected and m.get("unit") != expected[name]:
            errors.append(f"{name}: unit {m.get('unit')!r} != {expected[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errors.append(f"{name}: value {v!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"]
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check_result(run(command, w["name"], trace), expected[trace])
            print(f"{w['name']} trace={trace}: {'ok' if not errors else '; '.join(errors)}")
            failures += bool(errors)

    # a directory holding only BENCHMARK.json and the benchmark must fail
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(command, spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    bare_ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"bare directory: {'ok' if bare_ok else 'did not fail cleanly'} (exit {proc.returncode})")
    failures += not bare_ok

    print("selftest", "passed" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
