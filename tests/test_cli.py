"""Command-line interface: exit codes, outputs, seeding, reproducibility."""

import csv
import json

import numpy as np
import pytest

from lmtrees.cli import main
from lmtrees.dataset import NUMERIC, CsvSchema, Dataset, SplitColumn, write_csv
from lmtrees.tree import tree_depth, tree_from_json, tree_to_json


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


def test_simulate_threads_do_not_change_files(tmp_path):
    one = tmp_path / "t1.csv"
    two = tmp_path / "t2.csv"
    base = SIM_ARGS[:-2] + ["--strategies", "ctree,guide", "--seed", "2"]
    assert main(base + ["--threads", "1", "--out-long", str(one)]) == 0
    assert main(base + ["--threads", "2", "--out-long", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


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
    cases = [
        ("{not json", "error:"),
        (json.dumps({"format": "lmtrees-tree/1"}), "missing key 'root'"),
        (json.dumps({**valid, "root": {}}), "missing key 'children'"),
        (json.dumps({**valid, "root": []}), "wrong type"),
        (json.dumps({**valid, "schema": {**valid["schema"], "splits": 3}}), "wrong type"),
        (json.dumps([valid]), "JSON object"),
    ]
    bad = tmp_path / "bad.json"
    for content, message in cases:
        bad.write_text(content)
        code = main(["prune", "--method", "bic", "--tree", str(bad), "--data", str(data_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
