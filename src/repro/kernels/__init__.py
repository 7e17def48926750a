"""Kernel dispatch layer: the repro hot kernels behind a backend switch.

PRs 1–5 funnelled every hot path into a handful of NumPy kernels; this
package puts those kernels behind a ``kernels="numpy" | "native"``
switch (``TrainConfig.kernels``, env override ``REPRO_KERNELS``) so the
same call sites can run either the NumPy reference
(:mod:`repro.kernels._numpy`) or the compiled C port
(:mod:`repro.kernels._native`).  Both backends are bit-identical by
contract — the differential parity suite (``tests/test_kernels.py``)
and the full tier-1 suite under ``REPRO_KERNELS=native`` enforce it —
so backend choice is a pure throughput knob: sweep cache keys exclude
it, and results may never depend on it.

Dispatch is dynamically scoped: :func:`use` pushes a backend for the
duration of a ``with`` block (the simulation wraps each round in one),
and :func:`active` resolves the current backend — the innermost
:func:`use`, else the ``REPRO_KERNELS`` environment default, else
numpy.  Requesting ``"native"`` when the toolchain is missing raises
:class:`NativeKernelsUnavailable`; it never silently downgrades.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from repro.kernels._native import (
    NativeBackend,
    NativeKernelsUnavailable,
    load_native_backend,
)
from repro.kernels._numpy import NumpyKernels

__all__ = [
    "BACKENDS",
    "DISPATCH_TABLE",
    "NativeKernelsUnavailable",
    "active",
    "pairwise_sq_dists",
    "resolve",
    "row_diff_norms",
    "scatter_sum",
    "segment_div",
    "segment_sums",
    "stacked_step_gradients",
    "use",
]

BACKENDS = ("numpy", "native")

#: Kernel name -> the call sites that route through it.  Documentation
#: that is also data: the parity suite iterates this table so a kernel
#: added here without differential coverage fails loudly.
DISPATCH_TABLE = {
    "scatter_sum": ("federated/aggregation.py", "federated/server.py"),
    "segment_div": ("models/losses.py (bce/bpr_grad_segmented)",),
    "segment_sums": ("models/base.py (batch_local_step[_bpr])", "attacks/pieck_uea.py"),
    "pairwise_sq_dists": ("defenses/robust.py (Krum/MultiKrum/Bulyan)",),
    "stacked_step_gradients": ("attacks/base.py",),
    "row_diff_norms": ("attacks/mining.py (CohortMiner)",),
}

_instances: dict[str, object] = {}
_stack: list[object] = []


def resolve(backend: str | None = None):
    """Return the backend singleton for ``backend``.

    ``None`` defers to the ``REPRO_KERNELS`` environment variable (the
    CI hook), defaulting to ``"numpy"``.  ``"native"`` raises
    :class:`NativeKernelsUnavailable` when the compiled backend cannot
    be loaded — requesting native must never silently produce numpy.
    """
    if backend is None:
        backend = os.environ.get("REPRO_KERNELS") or "numpy"
    if not isinstance(backend, str) or backend not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; expected one of {BACKENDS}"
        )
    instance = _instances.get(backend)
    if instance is None:
        if backend == "native":
            instance = load_native_backend()
        else:
            instance = NumpyKernels()
        _instances[backend] = instance
    return instance


def active():
    """The backend dispatched calls use right now.

    The innermost :func:`use` scope wins; outside any scope the
    environment default applies per call, so plain library use (tests,
    notebooks) honours ``REPRO_KERNELS`` without any plumbing.
    """
    if _stack:
        return _stack[-1]
    return resolve(None)


@contextmanager
def use(backend):
    """Scope dispatched kernel calls to ``backend``.

    Accepts a backend name (or ``None`` for the environment default) or
    an already-resolved backend object — the simulation resolves once
    at construction to fail fast, then enters this scope every round.
    """
    if backend is None or isinstance(backend, str):
        backend = resolve(backend)
    _stack.append(backend)
    try:
        yield backend
    finally:
        _stack.pop()


# ----------------------------------------------------------------------
# Dispatched kernels.  Signatures and numerical contracts are defined
# by the reference backend (repro/kernels/_numpy.py).
# ----------------------------------------------------------------------


def scatter_sum(
    item_ids: np.ndarray, item_grads: np.ndarray, num_items: int
) -> np.ndarray:
    """Scatter-add gradient rows into a dense ``(num_items, dim)`` sum."""
    return active().scatter_sum(item_ids, item_grads, num_items)


def segment_div(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Divide each segment's rows by ``max(len(segment), 1)``."""
    return active().segment_div(values, lengths)


def segment_sums(rows: np.ndarray, lengths: np.ndarray, dim: int) -> np.ndarray:
    """Sum each segment's contiguous rows, row by row."""
    return active().segment_sums(rows, lengths, dim)


def pairwise_sq_dists(flat: np.ndarray) -> np.ndarray:
    """Pairwise squared distances (inf diagonal) per ``(n, dim)`` group."""
    return active().pairwise_sq_dists(flat)


def stacked_step_gradients(
    old_rows: np.ndarray,
    new_rows: np.ndarray,
    server_lr: float,
    max_step: float,
) -> np.ndarray:
    """Row-stacked bounded-step attack gradients."""
    return active().stacked_step_gradients(
        old_rows, new_rows, server_lr, max_step
    )


def row_diff_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row L2 norms of ``a - b`` (mining-ledger Delta-Norm)."""
    return active().row_diff_norms(a, b)
