"""One workload in one fresh process; started by run.py, not by hand.

Prints ``READY`` once errw and scipy are imported and a first CLI call is
done, then runs ``ceil(--seconds / pass_s)`` passes over the workload's
jobs, where ``pass_s`` is the workload's nominal pass time in
``workloads.SIZES``. Then prints one JSON line with per-pass timings,
per-operation outcomes and, with ``--trace 1``, per-layer metrics.

With tracing, each pass runs twice with the same inputs: untraced, then
traced. The difference of the two wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

# Address-space cap: an oracle that outgrows it fails with MemoryError
# instead of exhausting a shared machine.
ADDRESS_SPACE_LIMIT = 4 * 2**30


def _first_call(workdir: Path):
    import errw.cli

    cfg = workdir / "first_call.json"
    cfg.write_text(json.dumps({"params": {"alpha_p": 1, "alpha_c": 3}, "offspring": {"1": 1}}))
    code = errw.cli.main(["criteria", "--config", str(cfg), "--out", str(workdir / "first_call.out")])
    if code != 0:
        raise SystemExit(f"first call exited {code}")


def _run_pass(jobs, known_defects):
    """Time each job; check its output after the timer stops."""
    from workloads import Outcome

    ops = []
    wall = 0.0
    for job in jobs:
        t0 = time.perf_counter()
        try:
            raw, err = job.run(), None
        except Exception as exc:  # a raising job is a failed operation, not a failed run
            raw, err = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        wall += seconds
        if err is None:
            try:
                out = job.check(raw)
            except Exception as exc:
                out = Outcome(False, f"check raised {type(exc).__name__}: {exc}")
        else:
            out = Outcome(False, err)
        times = {k: v for k, v in (raw or {}).items() if k.endswith("_s")}
        ops.append({
            "name": job.name,
            "seconds": seconds,
            "times": times,
            "ok": out.ok,
            "known_defect": job.name in known_defects,
            "reason": out.reason,
            "work": {**job.work, **out.work},
            "info": out.info,
        })
    return {"wall_s": wall, "ops": ops}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true", help="exit after set-up")
    args = ap.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    workdir = Path(args.workdir)

    import numpy
    import scipy

    import errw

    src = Path(os.environ["ERRW_BENCH_SRC"]).resolve()
    if Path(errw.__file__).resolve().parent.parent != src:
        print(f"errw imported from {errw.__file__}, not from {src}", file=sys.stderr)
        return 2
    _first_call(workdir)
    print("READY", flush=True)
    if args.probe:
        return 0

    import tracer as tracing
    import workloads

    make_jobs = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(workdir=workdir, size=workloads.SIZES[args.size])
    errw_modules = [sys.modules[name] for name in tracing.MODULES]
    passes, traced, summaries = [], [], []
    cpu0, t_start = time.process_time(), time.perf_counter()
    def execute(pass_idx, tracer=None):
        # Fresh files for every execution: on ext4, truncating and rewriting a
        # file forces a flush on close, which would put disk waits in the timings.
        ctx.workdir = workdir / f"pass{pass_idx}{'-traced' if tracer else ''}"
        ctx.workdir.mkdir()
        jobs = make_jobs(ctx, args.seed, pass_idx)
        ctx.tracer = tracer
        try:
            if tracer is None:
                return _run_pass(jobs, workloads.KNOWN_DEFECTS)
            with tracing.installed(tracer, errw_modules):
                return _run_pass(jobs, workloads.KNOWN_DEFECTS)
        finally:
            ctx.tracer = None
            shutil.rmtree(ctx.workdir)

    # --seconds counts timed job time only, not input derivation or checks;
    # the pass count is fixed by it, not by the clock
    n_passes = max(1, math.ceil(args.seconds / ctx.size["pass_s"][args.workload]))
    for pass_idx in range(n_passes):
        passes.append(execute(pass_idx))
        if args.trace:
            tracer = tracing.Tracer()
            traced.append(execute(pass_idx, tracer))
            summaries.append(tracer.summary())
    elapsed = time.perf_counter() - t_start
    result = {
        "passes": passes,
        "traced_passes": traced,
        "cpu_util": (time.process_time() - cpu0) / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "errw": errw.__version__},
    }
    if args.trace:
        import layers

        result["per_layer"] = layers.per_layer(summaries, passes, traced)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
