"""Smoke test of the benchmark itself: every workload at toy sizes.

    python3 perfbench/smoke.py

Asserts that each workload emits every metric BENCHMARK.json names, with its
unit, in both modes; that every operation is checked; that the workload's
own rates are printed; that the exact work counts, and the numbers of
attempted and failed operations, repeat across two traced runs at one
seed; and that the command fails without a result in a directory that holds
only the benchmark. Takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_RATES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, workload: str, trace: int, seed: int = 3) -> tuple[int, list]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(workload: str, trace: int, lines: list) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload}: metric names or units differ: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (workload, name, m)
    checked = next(int(re.match(r"checks (\d+) ", ln).group(1)) for ln in lines if ln.startswith("checks "))
    assert checked == result["attempted"], f"{workload}: {checked} checked of {result['attempted']}"
    printed = {ln.split()[1]: ln.split()[-1] for ln in lines if ln.startswith("metric ")}
    for name, unit in WORKLOAD_RATES[workload] + [("failed_frac", "ratio")]:
        assert printed.get(name) == unit, f"{workload}: {name} not printed with unit {unit}"
    assert any(ln.startswith("provenance ") for ln in lines)
    return result


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        code, lines = bench(ROOT, workload, 0)
        assert code == 0, f"{workload} exited {code}"
        check_result(workload, 0, lines)
        counts = []
        for _ in range(2):
            code, lines = bench(ROOT, workload, 1)
            assert code == 0, f"{workload} traced run exited {code}"
            result = check_result(workload, 1, lines)
            counts.append({k: v["value"] for k, v in result["metrics"].items() if k.startswith("work.")})
            counts[-1].update(attempted=result["attempted"], failed=result["failed"])
        assert counts[0] == counts[1], f"{workload}: work counts differ: {counts}"
        assert any(counts[0].values()), f"{workload}: no work counted"
        print(f"ok {workload}: {counts[0]}")

    (HERE / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        code, lines = bench(bare, SPEC["workloads"][0]["name"], 0)
        assert code != 0 and not (lines and lines[-1].startswith("{")), (code, lines[-1:])
    finally:
        shutil.rmtree(bare)
    print("ok: fails without errw sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
