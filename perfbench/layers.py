"""What the traced run wraps, and how its spans become per-layer metrics.

Each traced function is named ``<module>.<function>``; ``run_strategy``
spans are renamed after the law of their outcome, and CLI commands are
named ``cli.main.<subcommand>`` at the benchmark's own call site.
"""

from __future__ import annotations

LAWS = ("chi2", "normal", "suplm", "degenerate")

# (module, attribute) pairs; the span name is "<module>.<attribute>"
FUNCTIONS = (
    ("dataset", "Dataset.take"),
    ("dataset", "empirical_quartiles"),
    ("dataset", "order_permutation"),
    ("dataset", "load_csv"),
    ("linmod", "fit_ols"),
    ("transform", "make_gof"),
    ("transform", "make_split_transform"),
    ("special", "chi2_sf"),
    ("special", "normal_sf"),
    ("inference", "run_strategy"),
    ("inference", "select_variable"),
    ("inference", "conditional_moments"),
    ("inference", "quad_form_test"),
    ("inference", "fluctuation_process"),
    ("inference", "suplm_pvalue"),
    ("inference", "chisq_statistic"),
    ("tree", "grow"),
    ("tree", "best_split_point"),
    ("tree", "partition_labels"),
    ("tree", "predict_tree"),
    ("tree", "tree_to_json"),
    ("tree", "tree_from_json"),
    ("prune", "cv_prune"),
    ("prune", "prune_at"),
    ("prune", "cost_complexity_path"),
    ("prune", "ic_prune"),
    ("sim", "run_study"),
    ("sim", "generate"),
    ("sim", "adjusted_rand_index"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


LAYER_SPANS = tuple(
    [span_name(m, a) for m, a in FUNCTIONS]
    + [f"inference.run_strategy.{law}" for law in LAWS]
    + ["cli.main.fit", "cli.main.prune"]
)


def _law_label(args, outcome) -> str:
    return f"inference.run_strategy.{outcome.law}"


def _observe_grow(counters, root) -> None:
    stack = [root]
    while stack:
        node = stack.pop()
        counters["tree.nodes"] += 1
        counters["tree.nodes_tested"] += bool(node.outcomes)
        counters["tree.nodes_split"] += bool(node.children)
        stack.extend(node.children)


def _observe_split(counters, split) -> None:
    counters["tree.best_split_point.found"] += split is not None


HOOKS = {
    "inference.run_strategy": {"label": _law_label},
    "tree.grow": {"observe": _observe_grow},
    "tree.best_split_point": {"observe": _observe_split},
}


def install(tracer) -> None:
    """Wrap every function in ``FUNCTIONS`` at all of its bindings."""
    import importlib

    import lmtrees.cli  # noqa: F401  (its imported names must be rebound too)

    for module_name, attr in FUNCTIONS:
        owner = importlib.import_module(f"lmtrees.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        name = span_name(module_name, attr)
        if tracer.install(owner, leaf, name, **HOOKS.get(name, {})) == 0:
            raise RuntimeError(f"no binding of lmtrees.{module_name}.{attr} found to trace")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(totals, counters) -> dict[str, float]:
    """Per-layer metrics from span totals and result counters.

    ``totals`` maps span names to ``(calls, self_seconds)``.
    """
    out: dict[str, float] = {}
    for name in LAYER_SPANS:
        calls, self_s = totals.get(name, (0, 0.0))
        if name == "inference.run_strategy":
            # spans are renamed after their law; only a raising call keeps the bare name
            for law in LAWS:
                law_calls, law_self = totals.get(f"{name}.{law}", (0, 0.0))
                calls += law_calls
                self_s += law_self
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out["inference.degenerate_ratio"] = _ratio(
        out["inference.run_strategy.degenerate.calls"], out["inference.run_strategy.calls"])
    out["tree.nodes"] = counters["tree.nodes"]
    out["tree.split_yield"] = _ratio(counters["tree.nodes_split"], counters["tree.nodes_tested"])
    out["tree.best_split_point.found_ratio"] = _ratio(
        counters["tree.best_split_point.found"], out["tree.best_split_point.calls"])
    out["prune.prune_at_per_cv_prune"] = _ratio(
        out["prune.prune_at.calls"], out["prune.cv_prune.calls"])
    return out


def metric_specs() -> dict[str, tuple[str, str]]:
    """``name -> (unit, better)`` of every per-layer metric, in BENCHMARK.json order."""
    specs: dict[str, tuple[str, str]] = {}
    for name in LAYER_SPANS:
        specs[f"{name}.calls"] = ("count", "lower")
        specs[f"{name}.self_s"] = ("s", "lower")
    specs.update({
        "inference.degenerate_ratio": ("ratio", "lower"),
        "tree.nodes": ("count", "lower"),
        "tree.split_yield": ("ratio", "higher"),
        "tree.best_split_point.found_ratio": ("ratio", "higher"),
        "prune.prune_at_per_cv_prune": ("ratio", "lower"),
        "inference.null_table.build_s.k1": ("s", "lower"),
        "inference.null_table.build_s.k2": ("s", "lower"),
        "inference.null_table.bytes": ("bytes", "lower"),
        "trace.ops_per_s": ("1/s", "higher"),
        "trace.untraced_ops_per_s": ("1/s", "higher"),
        "trace.overhead_frac": ("ratio", "lower"),
        "trace.spans": ("count", "lower"),
        "failed_frac": ("ratio", "lower"),
    })
    return specs
