"""Command-line interface: exit codes, outputs, seeding, reproducibility."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lmtrees.cli import main
from lmtrees.dataset import CATEGORICAL, NUMERIC, CsvSchema, Dataset, SplitColumn, write_csv
from lmtrees.tree import tree_from_json, tree_to_json

from helpers import tree_depth


def stump_csv(path, seed=0, n=200, delta=2.0):
    rng = np.random.default_rng(seed)
    z1 = rng.uniform(-1, 1, n)
    x = rng.uniform(-1, 1, n)
    y = delta * (z1 > 0.0) + x + 0.3 * rng.normal(size=n)
    data = Dataset(
        y,
        x,
        (
            SplitColumn("z1", NUMERIC, z1),
            SplitColumn("z2", NUMERIC, rng.normal(size=n)),
        ),
    )
    schema = CsvSchema("y", "x", (("z1", NUMERIC), ("z2", NUMERIC)))
    write_csv(data, str(path), schema)
    return data, schema


FIT_ARGS = ["fit", "--response", "y", "--regressor", "x", "--split", "z1,z2"]


# ------------------------------------------------------------------ exit codes


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == 0


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--bogus-flag", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--threads", "1"])  # removed: it had no effect
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])  # a subcommand is required
    assert exc.value.code == 2


def test_bogus_strategy_is_domain_error(tmp_path, capsys):
    stump_csv(tmp_path / "d.csv")
    code = main(FIT_ARGS + ["--data", str(tmp_path / "d.csv"), "--strategy", "nope"])
    assert code == 1
    err = capsys.readouterr().err
    assert "nope" in err
    # the message lists the valid names
    assert "mob" in err and "guide" in err and "ctree" in err


def test_missing_file_is_domain_error(capsys):
    code = main(FIT_ARGS + ["--data", "/nonexistent/never.csv"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_csv_is_domain_error(tmp_path, capsys):
    data, _ = stump_csv(tmp_path / "d.csv")
    with open(tmp_path / "d.csv", "a", encoding="utf-8") as handle:
        handle.write("0.5,0.5," + "7" * 200_000 + ",0.1\n")
    code = main(FIT_ARGS + ["--data", str(tmp_path / "d.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"line {data.n + 2}" in err


def test_exit_codes_as_a_shell_sees_them(tmp_path):
    # python -m lmtrees.cli in a fresh process, with the source on PYTHONPATH
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "lmtrees.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    stump_csv(tmp_path / "d.csv", n=60)
    fitted = run(*FIT_ARGS, "--data", "d.csv")
    assert fitted.returncode == 0 and fitted.stdout.startswith("fitted tree on 60 rows")
    missing = run(*FIT_ARGS, "--data", "missing.csv")
    assert missing.returncode == 1 and missing.stderr.startswith("error:")
    unknown = run(*FIT_ARGS, "--data", "d.csv", "--bogus-flag")
    assert unknown.returncode == 2 and "unrecognized arguments: --bogus-flag" in unknown.stderr


def test_categorical_outside_split_is_domain_error(tmp_path, capsys):
    stump_csv(tmp_path / "d.csv")
    code = main(
        FIT_ARGS + ["--data", str(tmp_path / "d.csv"), "--categorical", "zz"]
    )
    assert code == 1
    assert "zz" in capsys.readouterr().err


# ------------------------------------------------------------------------- fit


def test_fit_writes_tree_json(tmp_path, capsys):
    stump_csv(tmp_path / "d.csv")
    out = tmp_path / "tree.json"
    code = main(
        FIT_ARGS
        + ["--data", str(tmp_path / "d.csv"), "--strategy", "mob", "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "fitted tree on 200 rows" in text
    assert f"wrote {out}" in text
    tree, schema, strategy, control = tree_from_json(out.read_text())
    assert schema.response == "y" and schema.regressor == "x"
    assert tree.split is not None and tree.split.variable == "z1"
    assert control.alpha == 0.05


def test_fit_growth_flags_reach_the_grower(tmp_path):
    stump_csv(tmp_path / "d.csv", seed=3)
    out = tmp_path / "deep.json"
    code = main(
        FIT_ARGS
        + [
            "--data", str(tmp_path / "d.csv"),
            "--alpha", "1.0",
            "--no-preprune",
            "--max-depth", "2",
            "--min-node-size", "25",
            "--out", str(out),
        ]
    )
    assert code == 0
    tree, _, _, control = tree_from_json(out.read_text())
    assert control.max_depth == 2 and control.prepruning is False
    assert not tree.children == ()  # forced growth really split
    assert tree_depth(tree) <= 2
    for leaf in (n for n in _walk(tree) if not n.children):
        assert leaf.n >= 25


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


# -------------------------------------------------------------------- simulate


SIM_ARGS = [
    "simulate",
    "--scenario", "stump",
    "--variation", "intercept",
    "--xi", "0",
    "--delta", "1",
    "--reps", "3",
    "--n", "80",
    "--strategies", "ctree",
]


def test_simulate_writes_parseable_outputs(tmp_path, capsys):
    long_path = tmp_path / "long.csv"
    agg_path = tmp_path / "agg.csv"
    code = main(SIM_ARGS + ["--seed", "1", "--out-long", str(long_path), "--out-agg", str(agg_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "stump/ctree/intercept" in out
    with open(long_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "scenario" and len(rows) > 1
    with open(agg_path, newline="") as handle:
        agg = list(csv.reader(handle))
    assert agg[0][0] == "scenario" and len(agg) == 2
    assert agg[1][1] == "ctree"
    assert 0.0 <= float(agg[1][6]) <= 1.0


def test_simulate_same_seed_is_byte_identical(tmp_path):
    paths = [tmp_path / f"{tag}.csv" for tag in ("a", "b", "c")]
    for path, seed in zip(paths, ("5", "5", "6")):
        assert main(SIM_ARGS + ["--seed", seed, "--out-long", str(path)]) == 0
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b
    assert a != c


def test_simulate_seed_env_default_and_flag_precedence(tmp_path, monkeypatch):
    env_path = tmp_path / "env.csv"
    flag_path = tmp_path / "flag.csv"
    plain_path = tmp_path / "plain.csv"
    monkeypatch.setenv("LMTREES_SEED", "7")
    assert main(SIM_ARGS + ["--out-long", str(env_path)]) == 0
    assert main(SIM_ARGS + ["--seed", "3", "--out-long", str(flag_path)]) == 0
    monkeypatch.delenv("LMTREES_SEED")
    assert main(SIM_ARGS + ["--seed", "7", "--out-long", str(plain_path)]) == 0
    assert env_path.read_bytes() == plain_path.read_bytes()
    assert flag_path.read_bytes() != env_path.read_bytes()


def test_simulate_rejects_bad_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("LMTREES_SEED", "many")
    code = main(SIM_ARGS)
    assert code == 1
    assert "LMTREES_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_simulate_rejects_no_replications(tmp_path, capsys, reps):
    out = tmp_path / "long.csv"
    args = list(SIM_ARGS)
    args[args.index("--reps") + 1] = reps
    assert main(args + ["--seed", "1", "--out-long", str(out)]) == 1
    assert "replications" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--strategies", "mob,mob,guide", "repeated strategy 'mob'"),
    ("--xi", "0,0", "repeated cell ('stump', 'both', 0.0, 1.0)"),
    ("--strategies", ",", "no strategies given"),
    ("--xi", "nan", "xi must be finite"),
    ("--delta", "0,inf", "delta must be finite"),
])
def test_simulate_refuses_repeated_strategies_and_cells(tmp_path, capsys, flag, value, message):
    # each repeat would be aggregated into its first, doubling its reps
    out = tmp_path / "agg.csv"
    args = ["simulate", "--scenario", "stump", "--reps", "3", "--n", "60", "--seed", "0",
            "--strategies", "mob,guide", "--out-agg", str(out), flag, value]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_simulate_grid_crosses_variations_and_deltas(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--variation", "intercept,slope",
            "--delta", "0,1",
            "--reps", "2",
            "--n", "80",
            "--strategies", "ctree",
            "--seed", "0",
        ]
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("stump/")]
    assert len(lines) == 4  # 2 variations x 2 deltas


ALL_STRATEGIES = "ctree,mob,guide,guide+scores,ctree+max,ctree+cat,ctree+dich,mob+cat,mob+dich"

# sha256 of the long and aggregate CSVs, recorded before the node's split
# columns were tested in column blocks (numpy 2.4 with OpenBLAS 0.3 on
# x86-64), the pre-pruned tree run before a replication's trees shared
# their node work; a faster engine must write the same bytes
GOLDEN_RUNS = {
    "stump": (
        ["--scenario", "stump", "--variation", "intercept,slope", "--xi", "0,0.8",
         "--delta", "0,1", "--reps", "2", "--n", "120", "--seed", "11"],
        "5b83a9a1990c951cb95121c6eae9dffab1593428a5548f80f51ff6209fc820ae",
        "3e9a976b82ca620450882af341d13a2e67eb936cde4c6cc8e181e3fb23f96b5e",
    ),
    "tree_pre": (
        ["--scenario", "tree", "--variation", "both", "--xi", "0,0.8", "--delta", "0,1",
         "--reps", "2", "--n", "200", "--pruning", "pre", "--seed", "13"],
        "ee0600cc3060753058011cef0b172dcd8805615c37f180e820d5f52f4305f525",
        "f0ae5cadfee8ef8252b790cc6294f7c260541b1880f72369c566ddec8b55140d",
    ),
    "tree_post": (
        ["--scenario", "tree", "--variation", "both", "--xi", "0", "--delta", "1", "--reps", "1",
         "--n", "200", "--pruning", "post", "--folds", "4", "--seed", "12"],
        "37a278ce61d5c2890dad9c74daa26a5ff00a0e834c0e7854f3b8f1e89fcf5e90",
        "f9d96fb1baefb165b4be52f6d41e7529bad3c2e9c89970ff336e2c552b004aad",
    ),
}


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_simulate_outputs_keep_their_pinned_digests(tmp_path, run):
    args, long_digest, agg_digest = GOLDEN_RUNS[run]
    long_path, agg_path = tmp_path / "long.csv", tmp_path / "agg.csv"
    code = main(["simulate", "--strategies", ALL_STRATEGIES, *args,
                 "--out-long", str(long_path), "--out-agg", str(agg_path)])
    assert code == 0
    assert hashlib.sha256(long_path.read_bytes()).hexdigest() == long_digest
    assert hashlib.sha256(agg_path.read_bytes()).hexdigest() == agg_digest


# ----------------------------------------------------------------------- prune


def fitted_tree_file(tmp_path, data_name="d.csv", tree_name="t.json"):
    stump_csv(tmp_path / data_name, seed=9, n=160)
    out = tmp_path / tree_name
    code = main(
        FIT_ARGS
        + [
            "--data", str(tmp_path / data_name),
            "--alpha", "1.0",
            "--no-preprune",
            "--max-depth", "3",
            "--min-node-size", "25",
            "--out", str(out),
        ]
    )
    assert code == 0
    return tmp_path / data_name, out


def test_prune_cc_round_trip(tmp_path, capsys):
    data_path, tree_path = fitted_tree_file(tmp_path)
    pruned_path = tmp_path / "pruned.json"
    knots_path = tmp_path / "knots.csv"
    code = main(
        [
            "prune",
            "--tree", str(tree_path),
            "--data", str(data_path),
            "--method", "cc",
            "--folds", "4",
            "--seed", "0",
            "--out", str(pruned_path),
            "--path-out", str(knots_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "method=cc" in out and "chosen_alpha=" in out
    tree, _, _, _ = tree_from_json(pruned_path.read_text())
    assert tree.n == 160
    with open(knots_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["alpha", "leaves", "cv_loss"]
    assert len(rows) >= 2
    assert float(rows[1][0]) == 0.0


def test_prune_aic_route(tmp_path, capsys):
    data_path, tree_path = fitted_tree_file(tmp_path)
    pruned_path = tmp_path / "aic.json"
    code = main(
        [
            "prune",
            "--tree", str(tree_path),
            "--data", str(data_path),
            "--method", "aic",
            "--out", str(pruned_path),
        ]
    )
    assert code == 0
    assert "method=aic" in capsys.readouterr().out
    original, _, _, _ = tree_from_json(tree_path.read_text())
    pruned, _, _, _ = tree_from_json(pruned_path.read_text())
    assert len(list(_walk(pruned))) <= len(list(_walk(original)))


def test_prune_detects_wrong_dataset(tmp_path, capsys):
    data_path, tree_path = fitted_tree_file(tmp_path)
    stump_csv(tmp_path / "other.csv", seed=1, n=80)
    code = main(
        ["prune", "--tree", str(tree_path), "--data", str(tmp_path / "other.csv")]
    )
    assert code == 1
    assert "160" in capsys.readouterr().err


def test_prune_rejects_malformed_tree_file(tmp_path, capsys):
    data_path, tree_path = fitted_tree_file(tmp_path)
    text = tree_path.read_text()
    # a well-formed file loads and writes back the same bytes
    assert tree_to_json(*tree_from_json(text)) == text
    valid = json.loads(text)
    root, wrong_type = valid["root"], "malformed tree file: wrong type"
    variable = root["split"]["variable"]
    misspelled = {("multiplicty" if k == "multiplicity" else k): v
                  for k, v in valid["strategy"].items()}
    cases = [
        ("{not json", "error:"),
        (json.dumps({"format": "lmtrees-tree/1"}), "missing key 'root'"),
        (json.dumps({**valid, "root": {}}), "missing key 'children'"),
        (json.dumps({**valid, "root": []}), "wrong type"),
        (json.dumps({**valid, "schema": {**valid["schema"], "splits": 3}}), "wrong type"),
        (json.dumps([valid]), "JSON object"),
        # values a coercing reader misread: as True, True, 2, 0, ('a', 'b') and 0.001
        (json.dumps({**valid, "control": {**valid["control"], "prepruning": "false"}}), wrong_type),
        (json.dumps({**valid, "strategy": {**valid["strategy"], "use_scores": "false"}}),
         wrong_type),
        (json.dumps({**valid, "control": {**valid["control"], "max_depth": 2.9}}), wrong_type),
        (json.dumps({**valid, "root": {**root, "id": 0.9}}), wrong_type),
        (json.dumps({**valid, "root": {**root, "split": {
            "variable": variable, "left_levels": "ab", "right_levels": ["c"]}}}), wrong_type),
        (json.dumps({**valid, "root": {**root, "p_values": {
            **root["p_values"], variable: "0.001"}}}), wrong_type),
        # a misspelled key is refused, not read as the default of the key it misspells
        (json.dumps({**valid, "strategy": misspelled}),
         "malformed tree file: unknown key 'multiplicty'"),
    ]
    bad = tmp_path / "bad.json"
    for content, message in cases:
        bad.write_text(content)
        code = main(["prune", "--method", "bic", "--tree", str(bad), "--data", str(data_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count(message) == 1


def test_prune_rejects_a_negative_split_df(tmp_path, capsys):
    data_path, tree_path = fitted_tree_file(tmp_path)
    code = main(["prune", "--tree", str(tree_path), "--data", str(data_path), "--method", "bic",
                 "--split-df", "-1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "split_df" in err


def test_prune_cc_refuses_a_prepruned_tree(tmp_path, capsys):
    # cc grows again without the gate, so from a gated tree it could add leaves
    data_path, tree_path, out = tmp_path / "d.csv", tmp_path / "t.json", tmp_path / "p.json"
    stump_csv(data_path, seed=9, n=160)
    assert main(FIT_ARGS + ["--data", str(data_path), "--out", str(tree_path)]) == 0
    capsys.readouterr()
    prune = ["prune", "--tree", str(tree_path), "--data", str(data_path), "--out", str(out)]
    assert main(prune + ["--method", "cc"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--no-preprune" in err
    assert not out.exists()
    # the information criteria only collapse nodes, so a gated tree is fine
    for method in ("aic", "bic"):
        assert main(prune + ["--method", method]) == 0


def test_prune_path_out_needs_the_cc_method(tmp_path, capsys):
    # only cost-complexity pruning has a knot table to write
    knots = tmp_path / "k.csv"
    for method in ("aic", "bic"):
        with pytest.raises(SystemExit) as exc:
            main(["prune", "--tree", str(tmp_path / "absent.json"), "--data",
                  str(tmp_path / "absent.csv"), "--method", method, "--path-out", str(knots)])
        assert exc.value.code == 2
        assert "--path-out" in capsys.readouterr().err
    assert not knots.exists()


def mixed_csv(path, seed=21, n=240):
    """Tied and smooth numeric columns and a four-level categorical one."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    tied = rng.integers(0, 5, n).astype(float)
    codes = rng.integers(0, 4, n)
    y = np.where(tied >= 2, 1.0, -0.5) * x + 0.8 * (codes % 2) + 0.6 * rng.normal(size=n)
    z = (
        SplitColumn("tied", NUMERIC, tied),
        SplitColumn("region", CATEGORICAL, codes, levels=("north", "east", "south", "west")),
        SplitColumn("smooth", NUMERIC, rng.uniform(-1, 1, n)),
    )
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in z))
    write_csv(Dataset(y, x, z), str(path), schema)


# sha256 of the cc-pruned tree, its knot table and the bic-pruned tree,
# recorded before the cost-complexity path moved onto node arrays; the
# knot table's cv_loss reprs are pinned nowhere else
GOLDEN_PRUNES = {
    "mob": (
        "040156a68a7ffb56bfd0ba34999e54949384f1ca91769937011eaf1cf6ff04cf",
        "d14c3c90c91f529f90e6556fb4a1cea060a6f988d00079f9dc49565e169d951e",
        "040156a68a7ffb56bfd0ba34999e54949384f1ca91769937011eaf1cf6ff04cf",
    ),
    "guide+scores": (
        "5a5fb59a3b8393eff1ba430ae24f7dc1c83521460af6d70335a00941364d869c",
        "538bc5d2eb96786f01b9fbbd9e0f28c23e6ca9191995328ad995cfcd74d7d63d",
        "5a5fb59a3b8393eff1ba430ae24f7dc1c83521460af6d70335a00941364d869c",
    ),
}


@pytest.mark.parametrize("strategy", sorted(GOLDEN_PRUNES))
def test_prune_outputs_keep_their_pinned_digests(tmp_path, strategy):
    data_path, tree_path = tmp_path / "d.csv", tmp_path / "t.json"
    mixed_csv(data_path)
    assert main(["fit", "--response", "y", "--regressor", "x", "--split", "tied,region,smooth",
                 "--categorical", "region", "--strategy", strategy, "--no-preprune",
                 "--alpha", "1.0", "--max-depth", "4", "--min-node-size", "15",
                 "--data", str(data_path), "--out", str(tree_path)]) == 0
    cc, knots, bic = tmp_path / "cc.json", tmp_path / "knots.csv", tmp_path / "bic.json"
    prune = ["prune", "--tree", str(tree_path), "--data", str(data_path)]
    assert main(prune + ["--method", "cc", "--folds", "5", "--seed", "3", "--out", str(cc),
                         "--path-out", str(knots)]) == 0
    assert main(prune + ["--method", "bic", "--out", str(bic)]) == 0
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (cc, knots, bic))
    assert got == GOLDEN_PRUNES[strategy]
