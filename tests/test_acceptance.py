"""End-to-end acceptance: power-study behavior, exact oracles, invariants.

Each test prints one ``[ACCEPTANCE] <tag>: PASS/FAIL`` line with the
measured quantities before asserting, so a verbose run reads as a
checklist of the shipped behavioral claims.
"""

import itertools
import math
import time

import numpy as np
import pytest

from lmtrees.dataset import NUMERIC, Dataset, RngStream, SplitColumn
from lmtrees.inference import (
    chisq_statistic,
    conditional_moments,
    linear_statistic,
    parse_strategy,
    quad_form_test,
)
from lmtrees.linmod import fit_ols
from lmtrees.prune import cost_complexity_path
from lmtrees.sim import (
    ScenarioConfig,
    adjusted_rand_index,
    aggregate_records,
    generate,
    run_study,
)
from lmtrees.special import chi2_sf
from lmtrees.transform import GofMatrix, make_gof, make_split_transform
from lmtrees.tree import (
    GrowControl,
    best_split_point,
    grow,
    leaves,
    tree_to_json,
)

from helpers import all_pruned_costs, enumeration_moments, hand_node, run_alone, strat_list

HEADLINE = ("ctree", "mob", "guide", "guide+scores")


def report(tag, ok, detail):
    print(f"[ACCEPTANCE] {tag}: {'PASS' if ok else 'FAIL'} — {detail}")


def selection_by_strategy(records):
    return {
        row["strategy"]: row["selection_probability"] for row in aggregate_records(records)
    }


# --------------------------------------------------------------- 1: null size


def test_null_size_within_bounds():
    cell = ScenarioConfig("stump", "both", xi=0.0, delta=0.0, n=250, replications=500)
    start = time.time()
    records = run_study([cell], strat_list(*HEADLINE), seed=0)
    elapsed = time.time() - start
    rates = {}
    for name in HEADLINE:
        mine = [r for r in records if r.strategy == name]
        rates[name] = sum(1 for r in mine if r.chosen is not None) / len(mine)
    ok = all(0.01 <= rate <= 0.10 for rate in rates.values()) and elapsed < 120
    report(
        "null-size",
        ok,
        "false-alarm rate per strategy "
        + ", ".join(f"{k}={v:.3f}" for k, v in rates.items())
        + f"; elapsed {elapsed:.1f}s (budget 120s)",
    )
    for name, rate in rates.items():
        assert 0.01 <= rate <= 0.10, (name, rate)
    assert elapsed < 120


# --------------------------------------------------- 2: slope-shift blindness


def test_slope_blindness_of_binned_sign_screening():
    cell = ScenarioConfig("stump", "slope", xi=0.0, delta=1.0, n=250, replications=100)
    records = run_study([cell], strat_list(*HEADLINE), seed=0)
    sel = selection_by_strategy(records)
    tol = 0.08
    ok = (
        sel["guide"] < 0.10 + tol
        and sel["mob"] > 0.85 - tol
        and sel["ctree"] > 0.85 - tol
        and sel["guide+scores"] > 0.5 - tol
    )
    report(
        "slope-blindness",
        ok,
        f"guide={sel['guide']:.3f} (<0.18), mob={sel['mob']:.3f} (>0.77), "
        f"ctree={sel['ctree']:.3f} (>0.77), guide+scores={sel['guide+scores']:.3f} (>0.42)",
    )
    assert sel["guide"] < 0.10 + tol
    assert sel["mob"] > 0.85 - tol
    assert sel["ctree"] > 0.85 - tol
    assert sel["guide+scores"] > 0.5 - tol


# ------------------------------------------------------ 3: late-split ordering


def test_late_split_ordering():
    cell = ScenarioConfig("stump", "both", xi=0.8, delta=1.0, n=250, replications=100)
    records = run_study([cell], strat_list(*HEADLINE), seed=0)
    sel = selection_by_strategy(records)
    mob, ctree = sel["mob"], sel["ctree"]
    gs, guide = sel["guide+scores"], sel["guide"]
    # guide+scores sums one sign-by-bin table per score column, and the
    # intercept-score indicator (-2r >= 0) is the residual-sign indicator
    # with its two rows swapped.  So on every column the guide+scores
    # statistic is guide's plus that of the slope-sign table, on 3 + 3 df.
    p_z1 = {(r.rep, r.strategy): r.p_values["z1"] for r in records}
    guide_config, gs_config = parse_strategy("guide"), parse_strategy("guide+scores")
    broken = []
    for rep in range(cell.replications):
        data = generate(
            cell,
            RngStream(0, 0).substream(
                "data", cell.scenario, cell.variation, float(cell.xi), float(cell.delta),
                cell.n, rep,
            ),
        )
        fit = fit_ols(data.y, data.x)
        z1 = data.column("z1")
        by_guide = run_alone(guide_config, data.y, data.x, z1)
        by_gs = run_alone(gs_config, data.y, data.x, z1)
        design = make_split_transform(z1)
        signs = make_gof(fit, data.y, data.x, use_scores=True, dichotomize=True).values
        first, first_df = chisq_statistic(GofMatrix(signs[:, :1], True), design)
        slope, slope_df = chisq_statistic(GofMatrix(signs[:, 1:], True), design)
        # equal p-values tie each regenerated dataset to run_study's
        holds = (
            (by_guide.p_value, by_gs.p_value) == (p_z1[rep, "guide"], p_z1[rep, "guide+scores"])
            and math.isclose(first, by_guide.statistic, rel_tol=1e-12)
            and math.isclose(by_gs.statistic, by_guide.statistic + slope, rel_tol=1e-12)
            and (by_guide.df, first_df, slope_df, by_gs.df) == (3, 3, 3, 6)
        )
        if not holds:
            broken.append(rep)
    ok = mob > ctree > gs and mob - guide >= 0.3 and guide >= gs and not broken
    report(
        "late-split-ordering",
        ok,
        f"mob={mob:.3f} > ctree={ctree:.3f} > guide+scores={gs:.3f}; "
        f"mob-guide={mob - guide:.3f} (>=0.3); guide={guide:.3f} >= guide+scores; "
        f"guide+scores = guide + slope-sign table on z1 in "
        f"{cell.replications - len(broken)}/{cell.replications} replications",
    )
    assert mob > ctree
    assert ctree > gs
    assert mob - guide >= 0.3
    assert not broken, f"table identity fails at replications {broken}"
    # here the slope-sign table on z1 adds about 4.1 on its 3 df while the
    # Bonferroni cutoff at 0.005 rises from 12.84 (chi2_3) to 18.55
    # (chi2_6), so guide+scores trails guide: over 2 000 paired
    # replications it selects z1 at 0.199 against 0.251 (discordant pairs
    # 74 vs 178), and guide >= guide+scores at every seed 0-19 at 100 replications
    assert guide >= gs


# --------------------------------------------------- 4: dichotomization harm


def test_dichotomization_harms_power():
    cell = ScenarioConfig("stump", "both", xi=0.0, delta=0.3, n=250, replications=100)
    pairs = {
        "lin": ("scores,dich,lin", "scores,nodich,lin"),
        "cat": ("scores,dich,cat", "scores,nodich,cat"),
        "max": ("scores,dich,max", "scores,nodich,max"),
    }
    names = sorted({name for pair in pairs.values() for name in pair})
    records = run_study([cell], strat_list(*names), seed=0)
    mean_p = {row["strategy"]: row["mean_p"] for row in aggregate_records(records)}
    gaps = {
        mode: mean_p[dich] - mean_p[full] for mode, (dich, full) in pairs.items()
    }
    ok = all(gap > 0 for gap in gaps.values())
    report(
        "dichotomization-harm",
        ok,
        "mean-p excess of dichotomized variant " + ", ".join(
            f"{mode}=+{gap:.4f}" for mode, gap in gaps.items()
        ),
    )
    for mode, (dich, full) in pairs.items():
        assert mean_p[dich] > mean_p[full], (mode, mean_p[dich], mean_p[full])


# ------------------------------------------------ 5: continuous-change reversal


def test_continuous_change_favors_quadratic_statistic():
    cell = ScenarioConfig(
        "stump_continuous", "both", xi=0.0, delta=1.0, n=250, replications=100
    )
    records = run_study([cell], strat_list("ctree", "mob"), seed=0)
    sel = selection_by_strategy(records)
    ok = sel["ctree"] >= sel["mob"] - 0.08
    report(
        "continuous-change-reversal",
        ok,
        f"ctree={sel['ctree']:.3f} >= mob={sel['mob']:.3f} - 0.08",
    )
    assert sel["ctree"] >= sel["mob"] - 0.08


# --------------------------------------------------- 6: post-pruning rescue


def test_post_pruning_rescues_binned_strategies():
    cell = ScenarioConfig("tree", "both", xi=0.0, delta=1.0, n=250, replications=100)
    strategies = strat_list(*HEADLINE)
    pre = run_study([cell], strategies, pruning="pre", seed=0)
    post = run_study([cell], strategies, pruning="post", seed=0)
    ari_pre = {row["strategy"]: row["mean_ari"] for row in aggregate_records(pre)}
    ari_post = {row["strategy"]: row["mean_ari"] for row in aggregate_records(post)}
    rescue = ari_post["guide"] - ari_pre["guide"]
    gap_ctree = ari_post["ctree"] - ari_post["guide+scores"]
    gap_mob = ari_post["mob"] - ari_post["guide+scores"]
    ok = rescue >= 0.15 and gap_ctree <= 0.1 and gap_mob <= 0.1
    report(
        "post-pruning-rescue",
        ok,
        f"guide ARI post-pre=+{rescue:.3f} (>=0.15); guide+scores trails "
        f"ctree by {gap_ctree:.3f}, mob by {gap_mob:.3f} (both <=0.1)",
    )
    assert rescue >= 0.15
    assert gap_ctree <= 0.1
    assert gap_mob <= 0.1


# -------------------------------------------------------------- 7: exact oracles


def frozen_instance(seed):
    rng = np.random.default_rng(seed)
    n = 7
    y = rng.uniform(-1.0, 1.0, n)
    x = rng.uniform(-1.0, 1.0, n)
    fit = fit_ols(y, x)
    gof = make_gof(fit, y, x, use_scores=False, dichotomize=False)
    design = rng.uniform(-1.0, 1.0, n)[:, None]
    return gof, design


def test_exact_oracle_permutation_moments_and_tail():
    # moments: exact against full enumeration across sizes, widths, designs
    worst_moment = 0.0
    rng = np.random.default_rng(42)
    configs = [(5, 1, False), (6, 1, True), (6, 2, False), (5, 2, True), (7, 1, False)]
    for n, k, onehot in configs:
        h = rng.normal(size=(n, k))
        if onehot:
            lab = rng.integers(0, 2, n)
            g = np.eye(2)[lab]
        else:
            g = rng.normal(size=(n, 1))
        gof = GofMatrix(h, False)
        mean, cov = conditional_moments(gof, g)
        mu, sigma = enumeration_moments(design=g, gof_values=h)
        worst_moment = max(
            worst_moment,
            float(np.abs(mean - mu).max()),
            float(np.abs(cov - sigma).max()),
        )
    moments_ok = worst_moment <= 1e-10

    # tail: asymptotic p within 0.08 of the exact permutation tail on a
    # frozen block of small continuous instances (atoms from discrete
    # designs or multi-column gofs put the exact tail outside this band)
    perms = [list(p) for p in itertools.permutations(range(7))]
    worst_gap = 0.0
    for seed in range(3020, 3040):
        gof, design = frozen_instance(seed)
        t = linear_statistic(gof, design[None])
        mom = conditional_moments(gof, design[None])
        (stat,), _, (p_chi2,) = quad_form_test(t, *mom)
        stats = np.empty(len(perms))
        for i, perm in enumerate(perms):
            (s,), _, _ = quad_form_test(
                linear_statistic(GofMatrix(gof.values[perm], False), design[None]), *mom
            )
            stats[i] = s
        p_exact = float(np.mean(stats >= stat - 1e-12))
        worst_gap = max(worst_gap, abs(p_exact - p_chi2))
    tail_ok = worst_gap <= 0.08
    report(
        "exact-oracle-permutation",
        moments_ok and tail_ok,
        f"max moment error {worst_moment:.2e} (<=1e-10); "
        f"max tail gap {worst_gap:.4f} over 20 frozen instances (<=0.08)",
    )
    assert moments_ok
    assert tail_ok


def test_exact_oracle_score_fluctuation_scan():
    from lmtrees.dataset import order_permutation
    from lmtrees.inference import fluctuation_process, suplm_statistic

    rng = np.random.default_rng(7)
    n = 60
    y = rng.normal(size=n)
    x = rng.uniform(-1, 1, n)
    fit = fit_ols(y, x)
    gof = make_gof(fit, y, x, use_scores=True, dichotomize=False)
    col = SplitColumn("z", NUMERIC, rng.normal(size=n))
    ms = 9
    cumulative, tie_ends, _ = fluctuation_process(gof, col.values[None],
                                                  order_permutation(col)[None])
    (stat,), (peak,) = suplm_statistic(cumulative, tie_ends, ms)

    # termwise recomputation straight from the displayed definition
    order = np.argsort(col.values, kind="stable")
    s = gof.values[order]
    vhat = s.T @ s / n
    w, v = np.linalg.eigh(vhat)
    root_inv = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
    walk = np.cumsum(s @ root_inv, axis=0) / math.sqrt(n)
    best = -np.inf
    best_i = None
    for i in range(ms, n - ms + 1):
        frac = i / n
        value = float(walk[i - 1] @ walk[i - 1]) / (frac * (1.0 - frac))
        if value > best:
            best = value
            best_i = i
    gap = abs(stat - best) / best
    ok = gap <= 1e-10 and peak == best_i
    report(
        "exact-oracle-fluctuation",
        ok,
        f"statistic {stat:.6f} vs termwise {best:.6f} (rel err {gap:.2e}), "
        f"peak {peak} vs {best_i}",
    )
    assert stat == pytest.approx(best, rel=1e-10)
    assert peak == best_i


def test_exact_oracle_contingency_arithmetic():
    from lmtrees.inference import chisq_statistic

    # 2x2 table [[20,10],[10,20]]: X^2 = 60*(20*20-10*10)^2/30^4 = 20/3
    signs = np.concatenate([np.ones(20), np.zeros(10), np.ones(10), np.zeros(20)])
    bins = np.concatenate([np.zeros(30), np.ones(30)])
    gof = GofMatrix(signs[:, None], True)
    design = np.column_stack([(bins == 0).astype(float), (bins == 1).astype(float)])
    stat, df = chisq_statistic(gof, design)
    want = 20.0 / 3.0
    p = chi2_sf(stat, df)
    ok = abs(stat - want) <= 1e-10 and df == 1 and abs(p - 0.0098232745075192464) <= 1e-12
    report(
        "exact-oracle-contingency",
        ok,
        f"statistic {stat:.12f} vs 20/3, df={df}, p={p:.12g}",
    )
    assert stat == pytest.approx(want, abs=1e-10)
    assert df == 1
    assert p == pytest.approx(0.0098232745075192464, abs=1e-12)


def test_exact_oracle_split_search():
    def ols_rss(y, x):
        xc = x - x.mean()
        sxx = float(xc @ xc)
        if sxx <= 0.0:
            return None
        beta1 = float(xc @ (y - y.mean())) / sxx
        r = y - (y.mean() - beta1 * x.mean()) - beta1 * x
        return float(r @ r)

    worst = None
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        n = 20
        z = rng.normal(size=n)
        x = rng.uniform(-1, 1, n)
        y = 0.5 * (z > 0) + 0.3 * x + 0.4 * rng.normal(size=n)
        split = best_split_point(y, x, SplitColumn("z", NUMERIC, z), 3)
        zs = np.sort(z)
        best_point, best_total = None, np.inf
        for m in range(3, n - 2):
            if zs[m - 1] == zs[m]:
                continue
            point = 0.5 * (zs[m - 1] + zs[m])
            mask = z <= point
            left, right = ols_rss(y[mask], x[mask]), ols_rss(y[~mask], x[~mask])
            if left is None or right is None:
                continue
            if left + right < best_total:
                best_total = left + right
                best_point = point
        same = split is not None and split.point == best_point
        worst = (seed, split.point if split else None, best_point) if not same else worst
    ok = worst is None
    report(
        "exact-oracle-split-search",
        ok,
        "cut equals the exhaustive-refit argmin on 3 instances"
        if ok
        else f"mismatch at seed {worst[0]}: {worst[1]} vs {worst[2]}",
    )
    assert ok


def test_exact_oracle_pruning_path():
    # hand-built three-split tree with exact pencil-and-paper knots
    left = hand_node(1, 1, 40, 16.0, children=(hand_node(2, 2, 20, 4.0), hand_node(3, 2, 20, 6.0)))
    right = hand_node(4, 1, 40, 18.0, children=(hand_node(5, 2, 20, 9.0), hand_node(6, 2, 20, 5.0)))
    root = hand_node(0, 0, 80, 50.0, children=(left, right))
    path = cost_complexity_path(root)
    # g(left)=16-10=6, g(right)=18-14=4, g(root)=(50-24)/3
    knots = [alpha for alpha, _ in path]
    counts = [len(leaves(t)) for _, t in path]
    hand_ok = (
        knots == [0.0, 4.0, 6.0, 16.0]
        and counts == [4, 3, 2, 1]
    )
    # every path entry minimizes rss + alpha * leaves among all pruned subtrees
    options = all_pruned_costs(root)
    minimal_ok = True
    for k, (alpha, subtree) in enumerate(path):
        rss = sum(leaf.fit.rss for leaf in leaves(subtree))
        count = len(leaves(subtree))
        probes = [alpha]
        if k + 1 < len(path):
            probes.append(0.5 * (alpha + knots[k + 1]))
        for a in probes:
            best = min(orss + a * ocount for orss, ocount in options)
            if rss + a * count > best + 1e-9:
                minimal_ok = False
    ok = hand_ok and minimal_ok
    report(
        "exact-oracle-pruning-path",
        ok,
        f"knots {knots} leaves {counts}; penalized-loss minimal at every knot: {minimal_ok}",
    )
    assert knots == pytest.approx([0.0, 4.0, 6.0, 16.0])
    assert counts == [4, 3, 2, 1]
    assert minimal_ok


def test_exact_oracle_partition_agreement():
    def oracle(a, b):
        n = len(a)
        tb = ta = tb_only = ab = 0
        for i, j in itertools.combinations(range(n), 2):
            sa, sb = a[i] == a[j], b[i] == b[j]
            tb += sa and sb
            ta += sa and not sb
            tb_only += sb and not sa
            ab += not sa and not sb
        total = n * (n - 1) / 2
        expected = ((tb + ta) * (tb + tb_only) + (tb_only + ab) * (ta + ab)) / total
        if total == expected:
            return 1.0
        return (tb + ab - expected) / (total - expected)

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        a = rng.integers(0, 3, size=25)
        b = rng.integers(0, 4, size=25)
        worst = max(worst, abs(adjusted_rand_index(a, b) - oracle(list(a), list(b))))
    ok = worst <= 1e-12
    report("exact-oracle-partition-agreement", ok, f"max deviation {worst:.2e} (<=1e-12)")
    assert worst <= 1e-12


# ------------------------------------------------------------------ 8: invariants


def test_invariant_response_scale_free_pvalues():
    rng = np.random.default_rng(61)
    n = 120
    y = rng.normal(size=n)
    x = rng.uniform(-1, 1, n)
    col = SplitColumn("z", NUMERIC, rng.normal(size=n))
    worst = 0.0
    from lmtrees.inference import STRATEGIES

    for name in sorted(STRATEGIES):
        cfg = parse_strategy(name)
        base = run_alone(cfg, y, x, col)
        for factor in (1e-8, 1e8):
            scaled = run_alone(cfg, y * factor, x, col)
            denom = max(base.p_value, 1e-12)
            worst = max(worst, abs(scaled.p_value - base.p_value) / denom)
    ok = worst <= 1e-8
    report("invariant-scale-free", ok, f"max relative p drift {worst:.2e} across 9 strategies")
    assert ok


def test_invariant_least_squares_identities():
    rng = np.random.default_rng(62)
    n = 50
    x = rng.uniform(-2, 2, n)
    y = 1.5 - 0.7 * x + rng.normal(size=n)
    fit = fit_ols(y, x)
    r = y - fit.beta0 - fit.beta1 * x
    orth0 = abs(float(r.sum()))
    orth1 = abs(float(r @ x))
    scale = float(np.abs(y).sum())

    def rss_at(b0, b1):
        e = y - b0 - b1 * x
        return float(e @ e)

    eps = 1e-6
    grad0 = (rss_at(fit.beta0 + eps, fit.beta1) - rss_at(fit.beta0 - eps, fit.beta1)) / (2 * eps)
    grad1 = (rss_at(fit.beta0, fit.beta1 + eps) - rss_at(fit.beta0, fit.beta1 - eps)) / (2 * eps)
    ok = orth0 <= 1e-8 * scale and orth1 <= 1e-8 * scale and abs(grad0) < 1e-4 and abs(grad1) < 1e-4
    report(
        "invariant-least-squares",
        ok,
        f"|sum r|={orth0:.2e}, |sum rx|={orth1:.2e}, gradient at optimum "
        f"({grad0:.2e}, {grad1:.2e})",
    )
    assert ok


def test_invariant_null_selection_is_uniform():
    cell = ScenarioConfig("stump", "both", xi=0.0, delta=0.0, n=250, replications=1000)
    names = ("ctree", "mob", "guide")
    records = run_study([cell], strat_list(*names), seed=0)
    worst = {}
    for name in names:
        counts = {f"z{j}": 0 for j in range(1, 11)}
        mine = [r for r in records if r.strategy == name]
        for r in mine:
            best = min(r.p_values, key=r.p_values.get)
            counts[best] += 1
        freqs = {k: v / len(mine) for k, v in counts.items()}
        worst[name] = max(abs(f - 0.1) for f in freqs.values())
    ok = all(dev <= 0.05 for dev in worst.values())
    report(
        "invariant-null-uniformity",
        ok,
        "max |argmin freq - 1/10| " + ", ".join(f"{k}={v:.3f}" for k, v in worst.items()),
    )
    for name, dev in worst.items():
        assert dev <= 0.05, (name, dev)


def test_invariant_fixed_seed_determinism():
    cell = ScenarioConfig("stump", "both", xi=0.0, delta=0.5, n=100, replications=5, j_noise=3)
    a = run_study([cell], strat_list("ctree", "mob"), seed=13)
    b = run_study([cell], strat_list("ctree", "mob"), seed=13)
    study_ok = a == b

    rng = np.random.default_rng(63)
    n = 200
    z1 = rng.uniform(-1, 1, n)
    data = Dataset(
        2.0 * (z1 > 0) + rng.normal(size=n),
        rng.uniform(-1, 1, n),
        (SplitColumn("z1", NUMERIC, z1), SplitColumn("z2", NUMERIC, rng.normal(size=n))),
    )
    from lmtrees.dataset import CsvSchema

    control = GrowControl(max_depth=3)
    schema = CsvSchema("y", "x", (("z1", NUMERIC), ("z2", NUMERIC)))
    t1 = tree_to_json(grow(data, "mob", control), schema, parse_strategy("mob"), control)
    t2 = tree_to_json(grow(data, "mob", control), schema, parse_strategy("mob"), control)
    tree_ok = t1 == t2
    ok = study_ok and tree_ok
    report(
        "invariant-determinism",
        ok,
        f"study records identical: {study_ok}; regrown tree JSON identical: {tree_ok}",
    )
    assert ok
