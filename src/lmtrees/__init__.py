"""Linear model trees with pluggable split-selection tests.

The package grows regression trees whose leaves carry simple linear
models.  Variable selection and split-point search are decoupled:
any of several instability tests (linear statistic, maximally-selected
fluctuation, sign-by-bin contingency) ranks the candidate variables,
then the cut is chosen by exhaustive least squares.  Pre- and
post-pruning, a deterministic simulation harness, and a small CLI sit
on top.
"""

from .dataset import (
    CsvSchema,
    DataError,
    Dataset,
    RngStream,
    SplitColumn,
    empirical_quartiles,
    load_csv,
    order_permutation,
    write_csv,
)
from .inference import (
    STRATEGIES,
    ConditionalMoments,
    FluctuationProcess,
    StrategyConfig,
    TestOutcome,
    chisq_statistic,
    conditional_moments,
    linear_statistic,
    max_abs_test,
    parse_strategy,
    quad_form_test,
    run_strategy,
    select_variable,
    suplm_pvalue,
    suplm_statistic,
)
from .linmod import (
    DegenerateRegressorError,
    InsufficientDataError,
    LinearFit,
    fit_ols,
    predict,
)
from .prune import PruneResult, cost_complexity_path, cv_prune, ic_prune, prune_at
from .sim import (
    ReplicationRecord,
    ScenarioConfig,
    adjusted_rand_index,
    aggregate_records,
    gen_stump,
    gen_stump_continuous,
    gen_tree,
    run_study,
    true_partition,
)
from .transform import (
    GofMatrix,
    NoAdmissibleSplitError,
    make_gof,
    make_split_transform,
)
from .tree import (
    GrowControl,
    Split,
    TreeNode,
    best_split_point,
    grow,
    leaves,
    partition_labels,
    predict_tree,
    tree_from_json,
    tree_to_json,
)

__version__ = "0.1.0"
