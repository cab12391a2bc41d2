"""Per-layer metrics of a traced run, from the tracer's per-pass summaries.

Times are layer-self times (see tracer.py) summed over every traced pass and
divided by the matching work count; ``self_s`` metrics are medians over
traced passes. Counts come from the first traced pass alone, so they repeat
exactly at a fixed seed whatever the machine's speed. A metric whose layer
does not run on the workload reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

MODULES = ("branching", "cli", "conductance", "criteria", "dirichlet", "reversal",
           "specfun", "speed", "walk")
CLI_COMMANDS = ("speed", "simulate", "verify", "phase-diagram")
SPEED_POINTS = ("binary_1_1", "binary_2_1", "binary_1_0.5", "ternary_1_0.5", "ray_1_3",
                "binary_6_0.5")
# Exact work counts read from the operations' outcomes.
WORK_COUNTS = ("tuples", "slot_iters", "walk_steps", "regenerations", "oracle_checks",
               "grid_points")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_percentile(n: int) -> float:
    """Highest percentile that has at least ten samples beyond it."""
    for pct in PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 0.0


def per_layer(summaries: list, passes: list, traced: list) -> dict:
    first = summaries[0]

    def get(summary, name, key):
        return summary.get(name, {}).get(key, 0)

    def total(name, key):
        return sum(get(s, name, key) for s in summaries)

    def per_unit(name, scale, unit_key="work"):
        return scale * _ratio(total(name, "self_s"), total(name, unit_key))

    def median_self(name):
        return statistics.median(get(s, name, "self_s") for s in summaries)

    m = {}
    m["specfun.hyper_F_array.ns_per_x"] = per_unit("specfun.hyper_F_array", 1e9)
    m["specfun.hyper_F_array.x_count"] = get(first, "specfun.hyper_F_array", "work")
    m["specfun.phi.calls"] = get(first, "specfun.phi", "calls")

    m["conductance.sample_beta_population.ns_per_slot_iter"] = per_unit(
        "conductance.sample_beta_population", 1e9)
    m["conductance.estimate_C.ns_per_sample_term"] = per_unit("conductance.estimate_C", 1e9)
    m["conductance.tail_exponent.self_s"] = median_self("conductance.tail_exponent")
    m["conductance.pool.zero_frac"] = _ratio(
        get(first, "conductance.sample_beta_population", "pool_zeros"),
        get(first, "conductance.sample_beta_population", "pool_slots"))

    m["speed.evaluate_speed.ns_per_tuple"] = per_unit("speed.evaluate_speed", 1e9)
    saturated = {op["name"].removeprefix("speed."): op["info"].get("saturated_fraction", 0.0)
                 for op in traced[0]["ops"] if op["name"].startswith("speed.")}
    for point in SPEED_POINTS:
        m[f"speed.saturated_frac.{point}"] = saturated.get(point, 0.0)

    walks = ("walk.simulate_rwde_lazy", "walk.simulate_errw_lazy")
    for name in walks + ("walk.detect_epochs",):
        m[f"{name}.ns_per_step"] = per_unit(name, 1e9)
    replicates = sum(get(first, name, "calls") for name in walks)
    extinct = sum(get(first, name, "extinct") for name in walks)
    steps = sum(get(first, name, "work") for name in walks)
    # discarded (extinct) replicates skip epoch detection
    m["walk.detect_epochs.calls_per_replicate"] = _ratio(
        get(first, "walk.detect_epochs", "calls"), replicates - extinct)
    m["walk.new_vertices_per_step"] = _ratio(
        sum(get(first, name, "new_vertices") for name in walks), steps)
    m["walk.discard_frac"] = _ratio(extinct, replicates)
    m["walk.vertex_cap_overflows"] = sum(
        op["info"].get("overflows", 0) for op in traced[0]["ops"])

    m["branching.sample_tree.self_s"] = median_self("branching.sample_tree")

    for name in ("dirichlet.errw_path_probability", "dirichlet.two_path_product"):
        m[f"{name}.us_per_call"] = per_unit(name, 1e6, "calls")
    m["dirichlet.EnvTree.transition.calls"] = get(first, "dirichlet.EnvTree.transition", "calls")

    bias = np.asarray([t for s in summaries
                       for t in s.get("reversal.verify_quenched_bias", {}).get("per_call_s", [])])
    pct = tail_percentile(len(bias))
    m["reversal.verify_quenched_bias.ms_per_check.p50"] = (
        1e3 * float(np.percentile(bias, 50)) if len(bias) else 0.0)
    m["reversal.verify_quenched_bias.ms_per_check.tail"] = (
        1e3 * float(np.percentile(bias, pct)) if len(bias) else 0.0)
    m["reversal.verify_quenched_bias.ms_per_check.tail_pct"] = pct
    m["reversal.verify_quenched_bias.ms_per_check.n"] = len(bias)
    for name in ("reversal.verify_fresh_reversal", "reversal.verify_two_walk_reversal"):
        m[f"{name}.us_per_check"] = per_unit(name, 1e6, "calls")

    m["criteria.classify_speed.us_per_point"] = per_unit("criteria.classify_speed", 1e6, "calls")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = median_self(f"cli.{cmd}")
    for mod in MODULES:
        m[f"module.{mod}.self_s"] = statistics.median(
            s["__modules__"].get(mod, 0.0) for s in summaries)

    for key in WORK_COUNTS:
        m[f"work.{key}"] = sum(op["work"].get(key, 0) for op in traced[0]["ops"])
    m["work.new_vertices"] = sum(get(first, name, "new_vertices") for name in walks)
    m["work.transition_calls"] = m["dirichlet.EnvTree.transition.calls"]

    untraced = [p["wall_s"] for p in passes]
    with_trace = [p["wall_s"] for p in traced]
    m["trace.untraced_wall_s"] = statistics.median(untraced)
    m["trace.traced_wall_s"] = statistics.median(with_trace)
    m["trace.overhead_s"] = statistics.median(t - u for t, u in zip(with_trace, untraced))
    m["trace.overhead_frac"] = _ratio(m["trace.overhead_s"], m["trace.untraced_wall_s"])
    return m
