"""errw benchmark: one workload per fresh process, timed end to end.

    python3 perfbench/run.py --workload speed_mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere inside a source checkout; errw is imported from the
checkout's ``src/`` and nowhere else. The command starts a few set-up probes
and then one worker process per workload (BLAS and OpenMP threads pinned to
1), prints a human-readable report with provenance, every failed operation
and every metric with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are BENCHMARK.json's ``end_to_end`` set, with ``--trace 1`` its
``per_layer`` set. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
DEADLINE_S = 170.0
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# Each workload's own rates, as (name, unit); the first is its ``work_per_s``.
WORKLOAD_RATES = {
    "speed_mc": [("mc_tuples_per_s", "1/s"), ("speed_s_to_1pct", "s")],
    "pool_tail": [("pool_slot_iters_per_s", "1/s")],
    "walk_sim": [("walk_steps_per_s", "1/s")],
    "exact_oracles": [("oracle_checks_per_s", "1/s"), ("grid_points_per_s", "1/s")],
}


class BenchError(RuntimeError):
    """The benchmark could not run: a worker crashed, hung or misbehaved."""


def _work(ops, key):
    return sum(op["work"].get(key, 0) for op in ops)


def _secs(ops, prefix="", stage=None):
    """Seconds of the ops whose name starts with ``prefix``: whole ops, or
    only their ``stage`` sub-timing."""
    return sum(op["times"].get(stage, 0.0) if stage else op["seconds"]
               for op in ops if op["name"].startswith(prefix))


def _div(num, den):
    return num / den if den else 0.0


def pass_rates(workload: str, p: dict) -> dict:
    """The workload's own rates for one pass."""
    ops = p["ops"]
    if workload == "speed_mc":
        rates = {"mc_tuples_per_s": _div(_work(ops, "tuples"), _secs(ops, "speed."))}
        readme = next((op for op in ops if op["name"] == "speed.binary_1_1"), None)
        info = readme["info"] if readme else {}
        if info.get("speed"):
            # pool_s + mc_s (rel_se / 1%)^2: projected time to a 1% standard error
            rel_se = info["se"] / abs(info["speed"])
            rates["speed_s_to_1pct"] = info["pool_s"] + info["cli_s"] * (rel_se / 0.01) ** 2
        return rates
    if workload == "pool_tail":
        return {"pool_slot_iters_per_s": _div(_work(ops, "slot_iters"), _secs(ops, stage="pool_s"))}
    if workload == "walk_sim":
        return {"walk_steps_per_s": _div(_work(ops, "walk_steps"), p["wall_s"])}
    return {
        "oracle_checks_per_s": _div(_work(ops, "oracle_checks"), _secs(ops, "verify.")),
        "grid_points_per_s": _div(_work(ops, "grid_points"), _secs(ops, "grid.")),
    }


def median_pass(passes: list) -> dict:
    """One pass in which every job takes its median time over all passes.

    Job costs vary with their seeded inputs (F's cost per x is set by the
    largest argument in a batch), so per-job medians are much steadier than
    the median of pass totals. Work counts and outputs are those of pass 0.
    """
    ops = []
    for j, op in enumerate(passes[0]["ops"]):
        runs = [p["ops"][j] for p in passes]
        ops.append(dict(op, seconds=statistics.median(r["seconds"] for r in runs),
                        times={k: statistics.median(r["times"].get(k, 0.0) for r in runs)
                               for k in op["times"]}))
    return {"wall_s": sum(op["seconds"] for op in ops), "ops": ops}


def _read_ready(proc: subprocess.Popen, deadline: float) -> float:
    """Wait for the worker's READY line; returns the time it arrived."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not sel.select(remaining):
                raise BenchError("worker did not finish set-up in time")
            line = proc.stdout.readline()
            if not line:
                raise BenchError(f"worker exited during set-up (code {proc.wait()})")
            if line.strip() == "READY":
                return time.perf_counter()
    finally:
        sel.close()


def _spawn(args: list, env: dict, deadline: float) -> tuple[float, str]:
    """Start a worker; returns (set-up seconds, rest of its stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    try:
        setup = _read_ready(proc, deadline) - t0
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup, out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "errw").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(workload: str, args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / ".work"))
    env = dict(os.environ, **PINNED_THREADS, PYTHONHASHSEED="0", ERRW_BENCH_SRC=str(SRC))
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    load_start = os.getloadavg()
    try:
        def workdir_arg(name):
            (workdir / name).mkdir()
            return ["--workdir", str(workdir / name)]

        setups = [_spawn(workdir_arg(f"probe{i}") + ["--probe"], env, deadline)[0]
                  for i in range(SETUP_PROBES)]
        setup, out = _spawn(workdir_arg("worker") + [
            "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size], env, deadline)
        setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_end = os.getloadavg()
    res = json.loads(out.strip().splitlines()[-1])

    ops = [op for p in res["passes"] + res["traced_passes"] for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    typical = median_pass(res["passes"])
    rates = pass_rates(workload, typical)
    own = {name: (rates.get(name, 0.0), unit) for name, unit in WORKLOAD_RATES[workload]}
    nproc = len(os.sched_getaffinity(0))
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": typical["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "work_per_s": own[WORKLOAD_RATES[workload][0][0]][0],
    }
    provenance = {
        "workload": workload,
        "seed": args.seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": nproc,
        "versions": res["versions"],
        "pinned_env": PINNED_THREADS,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "cpu_util": res["cpu_util"],
        "busy": res["cpu_util"] < 0.9 or load_start[0] >= nproc,
        "passes": len(res["passes"]),
        "size": args.size,
    }

    print(f"== {workload} (seed {args.seed}, {len(res['passes'])} passes, trace {args.trace})")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if provenance["busy"]:
        print("WARNING: the machine was busy during this run; timings are suspect")
    reasons: dict = {}
    for op in failed:
        tag = " (known defect)" if op["known_defect"] else ""
        key = f"{op['name']}{tag}: {op['reason']}"
        reasons[key] = reasons.get(key, 0) + 1
    for key, count in reasons.items():
        print(f"failed x{count} {key}")
    print(f"checks {len(ops)} operations checked, {len(failed)} failed")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"metric failed_frac = {len(failed) / len(ops):.6g} ratio")
    for name, (value, unit) in own.items():
        print(f"metric {name} = {value:.6g} {unit}")
    first = res["passes"][0]["ops"]
    for key in sorted({k for op in first for k in op["work"]}):
        print(f"work {key} = {_work(first, key)} (pass 0)")
    skipped = sum(op["info"].get("skipped_verify_seeds", 0) for p in res["passes"] for op in p["ops"])
    if skipped:
        print(f"inputs {skipped} verify seed candidates skipped (oracle work outside the band)")

    if args.trace:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        missing = set(layer_units) - set(res["per_layer"])
        if missing:
            raise BenchError(f"per-layer metrics not computed: {sorted(missing)}")
        for name, value in res["per_layer"].items():
            print(f"layer {name} = {value:.6g} {layer_units.get(name, '')}")
        metrics = {n: {"value": res["per_layer"][n], "unit": u} for n, u in layer_units.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in units.items()}
    return {
        "correct": all(op["known_defect"] for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' exercises every path at toy sizes (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "errw" / "__init__.py").is_file():
        print(f"error: no errw sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in WORKLOAD_RATES for w in chosen):
        print(f"error: unknown workload {args.workload!r}; choose from {names} or 'all'", file=sys.stderr)
        return 2
    try:
        results = {w: run_workload(w, args, spec) for w in chosen}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[chosen[0]] if len(chosen) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
