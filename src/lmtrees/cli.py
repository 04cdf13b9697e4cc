"""Command-line front end: fit, simulate, prune.

Exit codes: 0 on success, 1 on domain errors (bad data, impossible
configuration), 2 on usage errors.  ``LMTREES_SEED`` supplies the
default seed; explicit ``--seed`` wins.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .dataset import CATEGORICAL, NUMERIC, CsvSchema, load_csv
from .inference import parse_strategy
from .prune import cv_prune, ic_prune
from .sim import (ScenarioConfig, aggregate_records, run_study, write_aggregate_csv,
                  write_records_csv)
from .tree import GrowControl, format_tree, grow, leaves, tree_from_json, tree_to_json


def _default_seed() -> int:
    raw = os.environ.get("LMTREES_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"LMTREES_SEED must be an integer, got {raw!r}") from None


def _csv_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in _csv_list(text)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lmtrees", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="grow a tree from a CSV file")
    fit.add_argument("--data", required=True)
    fit.add_argument("--response", required=True)
    fit.add_argument("--regressor", required=True)
    fit.add_argument("--split", required=True, help="comma-separated split columns")
    fit.add_argument("--categorical", default="", help="split columns to treat as categorical")
    fit.add_argument("--strategy", default="mob")
    fit.add_argument("--alpha", type=float, default=0.05)
    fit.add_argument("--min-node-size", type=int, default=20)
    fit.add_argument("--min-segment", type=int, default=None)
    fit.add_argument("--max-depth", type=int, default=5)
    fit.add_argument("--no-preprune", action="store_true")
    fit.add_argument("--multiplicity", choices=("bonferroni", "none"), default="bonferroni")
    fit.add_argument("--out", default=None, help="write the tree as JSON")

    simulate = sub.add_parser("simulate", help="run a power study grid")
    simulate.add_argument("--scenario", default="stump")
    simulate.add_argument("--variation", default="both")
    simulate.add_argument("--xi", default="0")
    simulate.add_argument("--delta", default="1")
    simulate.add_argument("--reps", type=int, default=100)
    simulate.add_argument("--n", type=int, default=250)
    simulate.add_argument("--strategies", default="ctree,mob,guide,guide+scores")
    simulate.add_argument("--pruning", choices=("pre", "post"), default="pre")
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--folds", type=int, default=10)
    simulate.add_argument("--alpha", type=float, default=0.05)
    simulate.add_argument("--multiplicity", choices=("bonferroni", "none"), default="bonferroni")
    simulate.add_argument("--out-long", default=None)
    simulate.add_argument("--out-agg", default=None)

    prune = sub.add_parser("prune", help="post-prune a stored tree")
    prune.add_argument("--tree", required=True)
    prune.add_argument("--data", required=True)
    prune.add_argument("--method", choices=("cc", "aic", "bic"), default="cc")
    prune.add_argument("--folds", type=int, default=10)
    prune.add_argument("--seed", type=int, default=None)
    prune.add_argument("--one-se", action="store_true")
    prune.add_argument("--split-df", type=int, default=1)
    prune.add_argument("--out", default=None)
    prune.add_argument("--path-out", default=None, help="write the knot table as CSV")
    return parser


def _cmd_fit(args: argparse.Namespace) -> int:
    categorical = set(_csv_list(args.categorical))
    split_names = _csv_list(args.split)
    unknown = categorical - set(split_names)
    if unknown:
        raise ValueError(f"--categorical names {sorted(unknown)} missing from --split")
    schema = CsvSchema(
        response=args.response,
        regressor=args.regressor,
        splits=tuple(
            (name, CATEGORICAL if name in categorical else NUMERIC) for name in split_names
        ),
    )
    data = load_csv(args.data, schema)
    strategy = parse_strategy(
        args.strategy, multiplicity=args.multiplicity, min_segment=args.min_segment
    )
    control = GrowControl(
        alpha=args.alpha,
        min_node_size=args.min_node_size,
        min_segment=args.min_segment,
        max_depth=args.max_depth,
        prepruning=not args.no_preprune,
    )
    tree = grow(data, strategy, control)
    print(f"fitted tree on {data.n} rows, {len(leaves(tree))} leaves")
    print(format_tree(tree))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(tree_to_json(tree, schema, strategy, control))
        print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    scenario = args.scenario.replace("-", "_")
    strategies = [
        (name, parse_strategy(name, alpha=args.alpha, multiplicity=args.multiplicity))
        for name in _csv_list(args.strategies)
    ]
    if not strategies:
        raise ValueError("no strategies given")
    cells = [
        ScenarioConfig(
            scenario=scenario,
            variation=variation,
            xi=xi,
            delta=delta,
            n=args.n,
            replications=args.reps,
        )
        for variation in _csv_list(args.variation)
        for xi in _float_list(args.xi)
        for delta in _float_list(args.delta)
    ]
    control = GrowControl(alpha=args.alpha)
    records = run_study(
        cells,
        strategies,
        control=control,
        pruning=args.pruning,
        seed=seed,
        folds=args.folds,
    )
    rows = aggregate_records(records)
    if args.out_long:
        write_records_csv(records, args.out_long)
        print(f"wrote {args.out_long}")
    if args.out_agg:
        write_aggregate_csv(rows, args.out_agg)
        print(f"wrote {args.out_agg}")
    for row in rows:
        parts = [
            f"{row['scenario']}/{row['strategy']}/{row['variation']}",
            f"xi={row['xi']:g}",
            f"delta={row['delta']:g}",
            f"sel={row['selection_probability']:.3f}",
            f"argmin={row['argmin_probability']:.3f}",
        ]
        if row["mean_p"] is not None:
            parts.append(f"mean_p={row['mean_p']:.4f}")
        if row["mean_ari"] is not None:
            parts.append(f"mean_ari={row['mean_ari']:.3f}")
        print("  ".join(parts))
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    with open(args.tree, "r", encoding="utf-8") as handle:
        tree, schema, strategy, control = tree_from_json(handle.read())
    data = load_csv(args.data, schema)
    if data.n != tree.n:
        raise ValueError(
            f"tree was grown on {tree.n} rows but {args.data} has {data.n}; wrong dataset?"
        )
    if args.method == "cc":
        if control.prepruning:
            # cv_prune grows without the gate, which can give more leaves than the tree read
            raise ValueError(
                f"--method cc needs a tree fitted with --no-preprune; {args.tree} was prepruned"
            )
        result = cv_prune(data, strategy, control, folds=args.folds, seed=seed, one_se=args.one_se)
    else:
        result = ic_prune(tree, criterion=args.method, split_df=args.split_df)
    print(
        f"method={result.method} leaves={len(leaves(result.tree))}"
        + (f" chosen_alpha={result.chosen_alpha:.6g}" if result.chosen_alpha is not None else "")
        + (f" score={result.score:.6g}" if result.score is not None else "")
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(tree_to_json(result.tree, schema, strategy, control))
        print(f"wrote {args.out}")
    if args.path_out:
        with open(args.path_out, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["alpha", "leaves", "cv_loss"])
            for alpha, size, loss in result.alpha_path:
                writer.writerow([repr(alpha), size, "" if loss is None else repr(loss)])
        print(f"wrote {args.path_out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "prune" and args.path_out and args.method != "cc":
        parser.error("--path-out writes the cost-complexity knot table and needs --method cc")
    handlers = {"fit": _cmd_fit, "simulate": _cmd_simulate, "prune": _cmd_prune}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
