"""Cost-sensitive hierarchical clustering for dynamic classifier selection."""

from .classifiers import (ClassifierSpec, build_correctness_cv3,
                          build_correctness_holdout,
                          load_external_predictions, train)
from .config import ExperimentConfig, load_config
from .data import (CorrectnessMatrix, DataError, Dataset, SplitPlan, load_csv,
                   make_split)
from .forest import Forest, build_forest, query_batch
from .harness import (average_ranks, mgi, oracle_accuracy, paired_sign_ttest,
                      run_experiment, wins_losses)
from .lp import LpInstance, LpSolution, LpSolverError, build_instance, solve
from .selection import Selection, select_batch

__version__ = "0.1.0"
