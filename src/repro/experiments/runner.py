"""Single-experiment runner producing (ER@K, HR@K) table cells.

This is the harness layer between one :class:`ExperimentConfig` and
one formatted number pair in a paper table: build the federated
simulation, train it to completion, evaluate ER@K (attack exposure,
Section VI) and HR@K (recommendation quality) and return them as
percentages.  Table and figure scripts in ``benchmarks/`` call
:func:`run_cell` once per cell, sharing a pre-generated dataset across
the cells of one table so that only the attack/defense axis varies —
exactly how the paper's tables are constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ExperimentConfig
from repro.datasets.base import InteractionDataset
from repro.federated.simulation import FederatedSimulation, SimulationResult

__all__ = ["Cell", "run_cell", "run_cells"]


@dataclass(frozen=True)
class Cell:
    """One table cell: attack effectiveness and recommendation quality.

    Values are percentages, matching the paper's table formatting.
    """

    er: float
    hr: float

    def __str__(self) -> str:
        return f"{self.er:6.2f} / {self.hr:5.2f}"


def run_cells(
    config: ExperimentConfig,
    *,
    dataset: InteractionDataset | None = None,
    ks: tuple[int, ...] | None = None,
) -> tuple[Cell, ...]:
    """Train one experiment once, evaluate every cutoff in ``ks``.

    Returns one :class:`Cell` per cutoff, in ``ks`` order (``None``
    means the config's ``train.top_k``).  Training runs exactly once:
    cutoffs equal to ``train.top_k`` reuse the final training
    evaluation, other cutoffs re-score the trained model — evaluation
    is deterministic in the model state, so each cell is bit-identical
    to a dedicated ``run_cell(config, k=k)`` run (Table V no longer
    retrains per K).
    """
    ks = (config.train.top_k,) if ks is None else tuple(ks)
    if not ks:
        raise ValueError("ks must contain at least one cutoff")
    sim = FederatedSimulation(config, dataset=dataset)
    result: SimulationResult = sim.run()
    cells: list[Cell] = []
    for k in ks:
        if k == config.train.top_k:
            er, hr = result.exposure, result.hit_ratio
        else:
            er, hr = sim.evaluate(k=k)
        cells.append(Cell(er=100.0 * er, hr=100.0 * hr))
    return tuple(cells)


def run_cell(
    config: ExperimentConfig,
    *,
    dataset: InteractionDataset | None = None,
    k: int | None = None,
    ks: tuple[int, ...] | None = None,
) -> Cell | tuple[Cell, ...]:
    """Run one experiment and return its ER/HR cell(s) (percent).

    ``dataset`` lets callers share a pre-generated dataset across the
    cells of a table (the paper's tables vary attack/defense, not the
    data). ``k`` overrides the evaluation cutoff (Table V); ``ks``
    evaluates a whole tuple of cutoffs from one training run and
    returns a matching tuple of cells.
    """
    if ks is not None:
        if k is not None:
            raise ValueError("pass either k or ks, not both")
        return run_cells(config, dataset=dataset, ks=ks)
    ks_single = (config.train.top_k,) if k is None else (k,)
    return run_cells(config, dataset=dataset, ks=ks_single)[0]
