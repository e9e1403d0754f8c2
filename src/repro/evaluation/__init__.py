"""``repro.evaluation`` — metrics, statistical tests and evaluation protocols.

* :mod:`~repro.evaluation.metrics` — accuracy, average accuracy, average rank
  and Num.Top-1 (the metrics of Tables I–V).
* :mod:`~repro.evaluation.ranking` — Friedman test, Nemenyi critical
  difference and a text rendering of the CD diagram (Fig. 6).
* :mod:`~repro.evaluation.protocols` — the three evaluation paradigms
  (case-by-case, multi-source generalization, few-shot learning).
* :mod:`~repro.evaluation.efficiency` — parameter counts, measured
  activation memory and wall-clock timing (Fig. 7c/d, Fig. 8a-c).
"""

from repro.evaluation.efficiency import EfficiencyReport, measure_finetune_efficiency
from repro.evaluation.metrics import (
    accuracy_score,
    average_accuracy,
    average_rank,
    num_top1,
    summarize_methods,
)
from repro.evaluation.protocols import (
    PROTOCOLS,
    ComparisonResult,
    run_case_by_case_comparison,
    run_fewshot_comparison,
    run_multisource_comparison,
    run_protocol,
)
from repro.evaluation.ranking import (
    critical_difference,
    friedman_test,
    nemenyi_groups,
    rank_matrix,
    render_cd_diagram,
)
from repro.evaluation.representation import (
    alignment,
    nearest_centroid_accuracy,
    representation_report,
    silhouette_score,
    uniformity,
)

__all__ = [
    "accuracy_score",
    "average_accuracy",
    "average_rank",
    "num_top1",
    "summarize_methods",
    "rank_matrix",
    "friedman_test",
    "critical_difference",
    "nemenyi_groups",
    "render_cd_diagram",
    "ComparisonResult",
    "PROTOCOLS",
    "run_protocol",
    "run_case_by_case_comparison",
    "run_multisource_comparison",
    "run_fewshot_comparison",
    "EfficiencyReport",
    "measure_finetune_efficiency",
    "alignment",
    "uniformity",
    "silhouette_score",
    "nearest_centroid_accuracy",
    "representation_report",
]
