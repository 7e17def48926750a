"""Experiment harness: presets, runners and table/figure generators.

Every table and figure of the paper's evaluation section has a
generator function here (see DESIGN.md's per-experiment index); the
``benchmarks/`` directory wraps each in a pytest-benchmark target that
prints the regenerated rows.
"""

from repro.experiments.presets import (
    EXPERIMENT_SCALES,
    attack_config,
    dataset_config,
    defense_config,
    experiment,
    train_config,
)
from repro.experiments.figures import (
    fig3_longtail,
    fig4_delta_norm,
    fig5_ratio_and_n,
    fig6a_trend,
    fig6b_cost,
    fig7_sample_ratio,
)
from repro.experiments.reporting import TableResult, format_table
from repro.experiments.plotting import bar_chart, line_plot
from repro.experiments.runner import Cell, run_cell, run_cells
from repro.experiments.stability import SeedSweep, sweep_seeds
from repro.experiments.sweep import CellSpec, SweepRunner, SweepStats
from repro.experiments.tables import (
    table2_pkl_ucr,
    table3_attacks,
    table4_defenses,
    table5_top_k,
    table6_ablation,
    table7_system_settings,
    table9_multi_target,
    table10_learning_rates,
    table11_bpr_loss,
)

__all__ = [
    "SeedSweep",
    "sweep_seeds",
    "line_plot",
    "bar_chart",
    "table2_pkl_ucr",
    "table3_attacks",
    "table4_defenses",
    "table5_top_k",
    "table6_ablation",
    "table7_system_settings",
    "table9_multi_target",
    "table10_learning_rates",
    "table11_bpr_loss",
    "fig3_longtail",
    "fig4_delta_norm",
    "fig5_ratio_and_n",
    "fig6a_trend",
    "fig6b_cost",
    "fig7_sample_ratio",
    "EXPERIMENT_SCALES",
    "dataset_config",
    "train_config",
    "attack_config",
    "defense_config",
    "experiment",
    "Cell",
    "run_cell",
    "run_cells",
    "CellSpec",
    "SweepRunner",
    "SweepStats",
    "TableResult",
    "format_table",
]
