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
    load_csv,
    write_csv,
)
from .inference import (
    STRATEGIES,
    StrategyConfig,
    TestOutcome,
    parse_strategy,
    run_strategy,
    select_variable,
    suplm_pvalue,
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
    generate,
    run_study,
    true_partition,
)
from .transform import GofMatrix, make_gof
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
