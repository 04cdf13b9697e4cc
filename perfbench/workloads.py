"""The three benchmark workloads and the CLI command cycle they share.

A workload is a fixed list of *units*, the calls the benchmark times:
one ``run_study`` batch for the simulate workloads, one CLI command for
``large_fit_prune``.  A unit completes one or more *ops* (records or
commands).  Every unit returns the digests of its outputs and the
structural problems found in them, so the caller can check each unit
against the stored reference or against an earlier run of the same unit.

The ``run_study`` grids derive their seeds from the workload seed; every
CSV the CLI reads is written with ``CLI_DATA_SEED`` whatever the workload
seed.  The program receives only the generated inputs: ``run_study``
grids with derived seeds, and CSV files written here with numpy's own
generator.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lmtrees
import lmtrees.cli
from lmtrees import sim

SPLIT_NAMES = tuple(f"z{j}" for j in range(1, 11))
REGION_LEVELS = ("central", "east", "north", "south", "west")
TREE_FORMAT = "lmtrees-tree/1"
# the cost of prune cc follows the length of its cost-complexity path,
# which varies with the data: with seeded CSVs, prune_cc_s moved by about
# 20 % between seeds at n = 1 000, so the CLI reads fixed data at every
# size and its times and outputs compare across seeds
CLI_DATA_SEED = 0


@dataclass
class UnitResult:
    ops: int
    # wall seconds of the call
    seconds: float
    # seconds scaled to the reference host speed, see calibration.py
    scaled: float
    # the same key means the same inputs: "batch:<b>" or a CLI command kind
    key: str
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    # counts derived from the outputs, for the trace completeness check
    derived: dict[str, int] = field(default_factory=dict)


def digest_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def batch_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def write_cli_csv(path: Path, n: int, seed: int) -> None:
    """Tree DGP (xi 0, delta 1) with ten split variables plus ``region``.

    ``region`` has five levels and shifts the intercept by 0.1 per level
    step, a small effect next to the unit-size regime jumps.
    """
    rng = np.random.Generator(np.random.PCG64([seed, 7]))
    x = rng.uniform(-1.0, 1.0, n)
    z = [
        rng.uniform(-1.0, 1.0, n) if j == 1 or j % 2 == 0 else rng.standard_normal(n)
        for j in range(1, 11)
    ]
    region = rng.integers(0, len(REGION_LEVELS), n)
    upper = z[1] > 0.0
    right = z[0] > 0.0
    beta0 = np.where(upper, np.where(right, 1.0, -1.0), 0.0)
    beta1 = np.where(upper, -1.0, 1.0)
    y = beta0 + beta1 * x + 0.1 * (region - 2) + rng.standard_normal(n)
    numeric = [[repr(v) for v in column.tolist()] for column in [y, x, *z]]
    labels = [REGION_LEVELS[code] for code in region.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(("y", "x") + SPLIT_NAMES + ("region",)) + "\n")
        for i in range(n):
            handle.write(",".join(column[i] for column in numeric) + "," + labels[i] + "\n")


def _count_leaves(node: dict) -> int:
    return 1 if not node["children"] else sum(_count_leaves(c) for c in node["children"])


class CliCycle:
    """``fit`` then ``prune --method cc`` then ``prune --method bic`` on one CSV,
    run in-process through ``lmtrees.cli.main``."""

    KINDS = ("fit", "prune_cc", "prune_bic")
    # prune cc takes several times as long as fit and prune bic and varies
    # less from call to call, so one pass times the two shorter ones twice
    SEQUENCE = ("fit", "prune_cc", "prune_bic", "fit", "prune_bic")

    def __init__(self, workdir: Path, n: int, seed: int, clock) -> None:
        self.n = n
        self.seed = seed
        self.clock = clock
        # set to a spans.Tracer to open a span around each command
        self.tracer = None
        self.data = workdir / f"cli_{n}.csv"
        write_cli_csv(self.data, n, seed)
        self.big = workdir / "big.json"
        self.outputs = {
            "fit": {"cli.fit": self.big},
            "prune_cc": {"cli.cc_tree": workdir / "pruned.json", "cli.cc_knots": workdir / "knots.csv"},
            "prune_bic": {"cli.bic": workdir / "bic.json"},
        }

    def argv(self, kind: str) -> list[str]:
        if kind == "fit":
            return [
                "fit", "--data", str(self.data), "--response", "y", "--regressor", "x",
                "--split", ",".join(SPLIT_NAMES + ("region",)), "--categorical", "region",
                "--strategy", "mob", "--alpha", "1", "--no-preprune", "--max-depth", "4",
                "--out", str(self.big),
            ]
        if kind == "prune_cc":
            out = self.outputs[kind]
            return [
                "prune", "--tree", str(self.big), "--data", str(self.data), "--method", "cc",
                "--folds", "5", "--seed", str(self.seed), "--out", str(out["cli.cc_tree"]),
                "--path-out", str(out["cli.cc_knots"]),
            ]
        return [
            "prune", "--tree", str(self.big), "--data", str(self.data), "--method", "bic",
            "--out", str(self.outputs[kind]["cli.bic"]),
        ]

    def run(self, kind: str) -> UnitResult:
        outputs = self.outputs[kind]
        for path in outputs.values():
            path.unlink(missing_ok=True)
        argv = self.argv(kind)
        sink = io.StringIO()

        def invoke() -> int:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if self.tracer is None:
                    return lmtrees.cli.main(argv)
                return self.tracer.call(f"cli.main.{argv[0]}", lmtrees.cli.main, argv)

        code, seconds, scaled = self.clock.time(invoke)
        result = UnitResult(ops=1, seconds=seconds, scaled=scaled, key=kind)
        if code != 0:
            result.problems.append(f"{kind}: exit code {code}: {sink.getvalue().strip()[-300:]}")
            return result
        for key, path in outputs.items():
            if not path.exists():
                result.problems.append(f"{kind}: {path.name} not written")
                return result
            result.digests[key] = digest_file(path)
        self._check(kind, result)
        return result

    def _check(self, kind: str, result: UnitResult) -> None:
        big = json.loads(self.big.read_text(encoding="utf-8"))
        if big.get("format") != TREE_FORMAT or big["root"]["n"] != self.n:
            result.problems.append(f"{kind}: fitted tree is not a {TREE_FORMAT} tree on {self.n} rows")
            return
        grown = _count_leaves(big["root"])
        result.derived["fits"] = int(kind == "fit")
        result.derived["cc"] = int(kind == "prune_cc")
        if kind == "prune_cc":
            pruned = json.loads(self.outputs[kind]["cli.cc_tree"].read_text(encoding="utf-8"))
            rows = self.outputs[kind]["cli.cc_knots"].read_text(encoding="utf-8").splitlines()[1:]
            alphas = [float(row.split(",")[0]) for row in rows]
            if not 1 <= _count_leaves(pruned["root"]) <= grown:
                result.problems.append("prune_cc: pruned tree is not a subtree of the fitted tree")
            if not alphas or alphas[0] != 0.0 or any(b < a for a, b in zip(alphas, alphas[1:])):
                result.problems.append("prune_cc: knot alphas do not rise from 0")
        elif kind == "prune_bic":
            pruned = json.loads(self.outputs[kind]["cli.bic"].read_text(encoding="utf-8"))
            if not 1 <= _count_leaves(pruned["root"]) <= grown:
                result.problems.append("prune_bic: pruned tree is not a subtree of the fitted tree")


class SimulateWorkload:
    """Shared loop body of the two ``run_study`` workloads."""

    name = ""
    cli_probe = True
    # calls on 250- to 2 000-row data; see calibration.py
    kernel = "small"

    def __init__(self, seed: int, tiny: bool, workdir: Path, clock) -> None:
        self.seed = seed
        self.clock = clock
        # the timed phase runs whole cycles of these batches
        self.units = 2 if tiny else self.cycle_units
        self.trace_units = 1 if tiny else self.full_trace_units
        self.cycle = CliCycle(workdir, 250 if tiny else self.cli_n, CLI_DATA_SEED, clock)
        self.records_csv = workdir / "records.csv"

    def cycle_seconds(self, unit_seconds: list[float]) -> float:
        """Seconds of one cycle, from the time of each batch: the median
        batch times the batch count, so that one batch slowed by a stall
        the kernel missed does not move the figure.  Every run covers the
        same batches, so the median is taken over the same inputs."""
        return len(unit_seconds) * statistics.median(unit_seconds)

    def run_unit(self, index: int) -> UnitResult:
        b = index % self.units
        records, seconds, scaled = self.clock.time(
            lambda: sim.run_study(
                self.cells,
                self.strategies,
                control=lmtrees.GrowControl(),
                pruning=self.pruning,
                seed=batch_seed(self.seed, b),
                folds=10,
                threads=1,
            )
        )
        result = UnitResult(ops=len(records), seconds=seconds, scaled=scaled, key=f"batch:{b}")
        sim.write_records_csv(records, str(self.records_csv))
        result.digests[result.key] = digest_file(self.records_csv)
        expected = self.ops_per_unit
        if len(records) != expected:
            result.problems.append(f"batch {b}: {len(records)} records, expected {expected}")
        names = set(SPLIT_NAMES)
        for r in records:
            if set(r.p_values) != names or not all(0.0 <= p <= 1.0 for p in r.p_values.values()):
                result.problems.append(f"batch {b}: record {r.strategy}/{r.rep} lacks valid p-values")
            if r.chosen is not None and r.chosen not in names:
                result.problems.append(f"batch {b}: chose unknown variable {r.chosen!r}")
            self.check_record(b, r, result)
        result.derived["records"] = len(records)
        result.derived["tests"] = sum(len(r.p_values) for r in records)
        return result

    def check_record(self, b: int, record, result: UnitResult) -> None:
        pass


class StumpSelect(SimulateWorkload):
    """Pre-pruned stump grid: one root ``select_variable`` per record."""

    name = "stump_select"
    pruning = "pre"
    cli_n = 250
    cycle_units = 16
    full_trace_units = 16
    STRATEGY_NAMES = ("ctree", "mob", "guide", "guide+scores", "residuals,nodich,lin")

    def __init__(self, seed: int, tiny: bool, workdir: Path, clock) -> None:
        self.cells = [
            sim.ScenarioConfig("stump", variation, xi, delta, n=250, replications=1)
            for variation in ("intercept", "slope", "both")
            for xi in (0.0, 0.8)
            for delta in (0.0, 1.0)
        ]
        self.strategies = [(s, lmtrees.parse_strategy(s)) for s in self.STRATEGY_NAMES]
        self.ops_per_unit = len(self.cells) * len(self.strategies)
        super().__init__(seed, tiny, workdir, clock)

    def check_record(self, b: int, record, result: UnitResult) -> None:
        if record.ari is not None or record.leaf_count is not None:
            result.problems.append(f"batch {b}: stump record carries tree fields")


class TreePost(SimulateWorkload):
    """The post-pruning acceptance cell: one cross-validated tree per record."""

    name = "tree_post"
    pruning = "post"
    cli_n = 2000
    cycle_units = 8
    full_trace_units = 6
    STRATEGY_NAMES = ("ctree", "mob", "guide", "guide+scores")

    def __init__(self, seed: int, tiny: bool, workdir: Path, clock) -> None:
        self.cells = [sim.ScenarioConfig("tree", "both", 0.0, 1.0, n=250, replications=1)]
        self.strategies = [(s, lmtrees.parse_strategy(s)) for s in self.STRATEGY_NAMES]
        self.ops_per_unit = len(self.strategies)
        super().__init__(seed, tiny, workdir, clock)

    def check_record(self, b: int, record, result: UnitResult) -> None:
        if record.ari is None or not -1.0 <= record.ari <= 1.0:
            result.problems.append(f"batch {b}: ARI {record.ari!r} outside [-1, 1]")
        if record.leaf_count is None or record.leaf_count < 1:
            result.problems.append(f"batch {b}: leaf count {record.leaf_count!r}")


class LargeFitPrune:
    """``fit``, ``prune cc`` and ``prune bic`` on one 100 000-row CSV."""

    name = "large_fit_prune"
    ops_per_unit = 1
    cli_probe = False
    kernel = "large"
    # one prune cc fills a third of a pass; fit and prune bic are timed
    # three and five times per pass, so that their medians rest on more
    # than one call.  prune cc comes last, so that the kernel samples that
    # scale it span the whole pass (calibration.py).
    SEQUENCE = ("fit", "prune_bic", "fit", "prune_bic", "prune_bic",
                "fit", "prune_bic", "prune_bic", "prune_cc")

    def __init__(self, seed: int, tiny: bool, workdir: Path, clock) -> None:
        self.cycle = CliCycle(workdir, 2000 if tiny else 100_000, CLI_DATA_SEED, clock)
        # one cycle is one pass of the command sequence
        self.units = len(self.SEQUENCE)
        self.trace_units = self.units

    def cycle_seconds(self, unit_seconds: list[float]) -> float:
        """Seconds of one fit, one prune cc and one prune bic."""
        return sum(unit_seconds)

    def run_unit(self, index: int) -> UnitResult:
        return self.cycle.run(self.SEQUENCE[index % self.units])


WORKLOADS = {w.name: w for w in (StumpSelect, TreePost, LargeFitPrune)}
