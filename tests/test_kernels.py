"""Differential parity suite for the kernel dispatch layer.

The gate the native backend merges behind: every kernel in
:data:`repro.kernels.DISPATCH_TABLE` is swept over randomized
(seeded, shrinkable — hypothesis) cases covering shapes, dtypes
(float32/float64), duplicate / empty / single-contributor segments and
non-contiguous views, asserting **bit** identity between the NumPy
reference and the compiled native backend — byte-for-byte via
``tobytes()``, so ``-0.0`` / ``0.0`` and last-ulp differences cannot
hide behind ``allclose``.

Also here: the dispatcher semantics (``resolve`` / ``use`` /
``active`` / ``REPRO_KERNELS``), the no-silent-fallback guard
(requesting ``"native"`` without a toolchain raises), the counted
per-call dtype fallbacks, the engine's ``kernel_fallback_rounds``
accounting, the ``scatter_sum`` int32 index-overflow regression, and
an end-to-end numpy-vs-native simulation parity check.
"""

from __future__ import annotations

import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import kernels
from repro.config import (
    AttackConfig,
    DatasetConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
)
from repro.federated.simulation import FederatedSimulation
from repro.kernels import NativeKernelsUnavailable, _native
from repro.kernels._numpy import NumpyKernels, composite_indices

REFERENCE = NumpyKernels()

try:
    NATIVE = kernels.resolve("native")
    NATIVE_ERROR = None
except NativeKernelsUnavailable as exc:  # pragma: no cover - CI has a toolchain
    NATIVE = None
    NATIVE_ERROR = str(exc)

needs_native = pytest.mark.skipif(
    NATIVE is None, reason=f"native backend unavailable: {NATIVE_ERROR}"
)

#: Shared settings of the randomized sweeps: seeded/derandomized so CI
#: is reproducible, shrinkable by construction (hypothesis minimises
#: failing cases), no deadline (the first native call compiles).
SWEEP = settings(max_examples=60, deadline=None, derandomize=True)


def assert_bit_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    """Byte-for-byte equality: dtype, shape, and every bit pattern."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(
        expected
    ).tobytes()


def floats_for(dtype) -> st.SearchStrategy[float]:
    width = 32 if np.dtype(dtype) == np.float32 else 64
    return st.floats(-1e6, 1e6, allow_nan=False, width=width)


@st.composite
def segment_layouts(draw, max_segments: int = 8, max_len: int = 6):
    """Ragged lengths covering empty, single-row and duplicate segments."""
    num_segments = draw(st.integers(0, max_segments))
    lengths = np.array(
        [draw(st.integers(0, max_len)) for _ in range(num_segments)],
        dtype=np.int64,
    )
    return lengths


# ----------------------------------------------------------------------
# Per-kernel differential sweeps
# ----------------------------------------------------------------------


@needs_native
class TestScatterSumParity:
    @given(
        data=st.data(),
        num_items=st.integers(1, 12),
        dim=st.integers(0, 10),
        rows=st.integers(0, 40),
        ids_dtype=st.sampled_from([np.int32, np.int64]),
        grads_dtype=st.sampled_from([np.float64, np.float32]),
    )
    @SWEEP
    def test_matches_reference(
        self, data, num_items, dim, rows, ids_dtype, grads_dtype
    ):
        ids = data.draw(
            arrays(ids_dtype, (rows,), elements=st.integers(0, num_items - 1))
        )
        grads = data.draw(
            arrays(grads_dtype, (rows, dim), elements=floats_for(grads_dtype))
        )
        assert_bit_identical(
            NATIVE.scatter_sum(ids, grads, num_items),
            REFERENCE.scatter_sum(ids, grads, num_items),
        )

    def test_duplicate_ids_accumulate_in_row_order(self):
        # Catastrophic-cancellation rows make the accumulation order
        # observable: any reordering changes the float result.
        ids = np.zeros(4, dtype=np.int64)
        grads = np.array([[1e16], [1.0], [-1e16], [1.0]])
        assert_bit_identical(
            NATIVE.scatter_sum(ids, grads, 2),
            REFERENCE.scatter_sum(ids, grads, 2),
        )

    def test_negative_zero_rows_survive(self):
        ids = np.array([0, 1], dtype=np.int64)
        grads = np.array([[-0.0, 0.0], [-0.0, -0.0]])
        native = NATIVE.scatter_sum(ids, grads, 3)
        assert_bit_identical(native, REFERENCE.scatter_sum(ids, grads, 3))


@needs_native
class TestSegmentDivParity:
    @given(
        data=st.data(),
        lengths=segment_layouts(),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    @SWEEP
    def test_matches_reference(self, data, lengths, dtype):
        total = int(lengths.sum())
        values = data.draw(arrays(dtype, (total,), elements=floats_for(dtype)))
        assert_bit_identical(
            NATIVE.segment_div(values, lengths),
            REFERENCE.segment_div(values, lengths),
        )

    def test_preserves_dtype(self):
        lengths = np.array([2, 1], dtype=np.int64)
        values = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        assert NATIVE.segment_div(values, lengths).dtype == np.float32


@needs_native
class TestSegmentSumsParity:
    @given(
        data=st.data(),
        lengths=segment_layouts(),
        dim=st.integers(0, 10),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    @SWEEP
    def test_matches_reference(self, data, lengths, dim, dtype):
        total = int(lengths.sum())
        rows = data.draw(arrays(dtype, (total, dim), elements=floats_for(dtype)))
        assert_bit_identical(
            NATIVE.segment_sums(rows, lengths, dim),
            REFERENCE.segment_sums(rows, lengths, dim),
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_long_segments_sum_row_by_row(self, dim, dtype):
        # Segments past NumPy's eight-way pairwise unroll: one column is
        # contiguous along the summed axis, where np.add.reduce would go
        # pairwise; both backends must add the rows in order, each from
        # the identity.
        rng = np.random.default_rng(dim)
        lengths = np.array([16, 9, 40, 0, 1], dtype=np.int64)
        rows = (
            rng.standard_normal((int(lengths.sum()), dim))
            * 10.0 ** rng.integers(-12, 12, (int(lengths.sum()), dim))
        ).astype(dtype)
        rows[:16] = 2.0**-53
        rows[0] = 1.0
        expected = np.zeros((len(lengths), dim), dtype=dtype)
        start = 0
        for index, length in enumerate(lengths.tolist()):
            for row in rows[start : start + length]:
                expected[index] += row
            start += length
        assert_bit_identical(REFERENCE.segment_sums(rows, lengths, dim), expected)
        assert_bit_identical(NATIVE.segment_sums(rows, lengths, dim), expected)

    def test_negative_zero_rows_sum_to_positive_zero(self):
        # np.add.reduce(axis=0) seeds with the additive identity +0.0,
        # so even a single -0.0 row reduces to +0.0 (identity + row
        # flips the sign bit); the native port must reproduce that.
        lengths = np.array([1, 2], dtype=np.int64)
        rows = np.array([[-0.0], [-0.0], [-0.0]])
        native = NATIVE.segment_sums(rows, lengths, 1)
        assert_bit_identical(native, REFERENCE.segment_sums(rows, lengths, 1))
        assert not np.signbit(native).any()


@needs_native
class TestPairwiseSqDistsParity:
    @given(
        data=st.data(),
        groups=st.integers(0, 4),
        n=st.integers(0, 7),
        dim=st.integers(0, 12),
    )
    @SWEEP
    def test_matches_reference(self, data, groups, n, dim):
        flat = data.draw(
            arrays(np.float64, (groups, n, dim), elements=floats_for(np.float64))
        )
        assert_bit_identical(
            NATIVE.pairwise_sq_dists(flat), REFERENCE.pairwise_sq_dists(flat)
        )

    def test_diagonal_is_inf(self):
        flat = np.random.default_rng(3).standard_normal((2, 5, 4))
        for backend in (NATIVE, REFERENCE):
            dists = backend.pairwise_sq_dists(flat)
            assert np.isinf(dists[:, np.arange(5), np.arange(5)]).all()


@needs_native
class TestStackedStepGradientsParity:
    @given(
        data=st.data(),
        rows=st.integers(0, 20),
        dim=st.integers(0, 10),
        server_lr=st.floats(0.01, 10.0, allow_nan=False),
        max_step=st.one_of(st.just(0.0), st.floats(0.001, 100.0)),
    )
    @SWEEP
    def test_matches_reference(self, data, rows, dim, server_lr, max_step):
        old = data.draw(
            arrays(np.float64, (rows, dim), elements=floats_for(np.float64))
        )
        new = data.draw(
            arrays(np.float64, (rows, dim), elements=floats_for(np.float64))
        )
        assert_bit_identical(
            NATIVE.stacked_step_gradients(old, new, server_lr, max_step),
            REFERENCE.stacked_step_gradients(old, new, server_lr, max_step),
        )

    def test_clipping_branch_bitwise(self):
        rng = np.random.default_rng(11)
        old = rng.standard_normal((16, 8))
        new = old + rng.standard_normal((16, 8)) * 5.0
        assert_bit_identical(
            NATIVE.stacked_step_gradients(old, new, 0.25, 1.0),
            REFERENCE.stacked_step_gradients(old, new, 0.25, 1.0),
        )


@needs_native
class TestRowDiffNormsParity:
    @given(data=st.data(), rows=st.integers(0, 30), dim=st.integers(0, 10))
    @SWEEP
    def test_matches_reference(self, data, rows, dim):
        a = data.draw(
            arrays(np.float64, (rows, dim), elements=floats_for(np.float64))
        )
        b = data.draw(
            arrays(np.float64, (rows, dim), elements=floats_for(np.float64))
        )
        assert_bit_identical(
            NATIVE.row_diff_norms(a, b), REFERENCE.row_diff_norms(a, b)
        )


@needs_native
class TestNonContiguousViews:
    """Native marshalling must make exact copies, never approximate ones."""

    def test_every_kernel_accepts_strided_views(self):
        rng = np.random.default_rng(17)
        base = rng.standard_normal((48, 24))
        rows = base[::2, ::3]  # non-contiguous in both axes
        lengths = np.array([5, 0, 10, 1, 8], dtype=np.int64)
        assert_bit_identical(
            NATIVE.segment_sums(rows, lengths, rows.shape[1]),
            REFERENCE.segment_sums(rows, lengths, rows.shape[1]),
        )
        ids = rng.integers(0, 6, size=rows.shape[0])
        assert_bit_identical(
            NATIVE.scatter_sum(ids, rows, 6), REFERENCE.scatter_sum(ids, rows, 6)
        )
        flat1d = base.ravel()[::5][:24]
        assert_bit_identical(
            NATIVE.segment_div(flat1d, lengths),
            REFERENCE.segment_div(flat1d, lengths),
        )
        stacks = np.lib.stride_tricks.sliding_window_view(base[:, 0], 6)[::4][
            None
        ]
        assert_bit_identical(
            NATIVE.pairwise_sq_dists(stacks), REFERENCE.pairwise_sq_dists(stacks)
        )
        old, new = base[::2, :8], base[1::2, :8]
        assert_bit_identical(
            NATIVE.stacked_step_gradients(old, new, 0.5, 1.0),
            REFERENCE.stacked_step_gradients(old, new, 0.5, 1.0),
        )
        assert_bit_identical(
            NATIVE.row_diff_norms(old, new), REFERENCE.row_diff_norms(old, new)
        )


# ----------------------------------------------------------------------
# Dispatch-table completeness
# ----------------------------------------------------------------------

#: Kernels this suite differentially covers.  Adding a kernel to
#: DISPATCH_TABLE without adding parity coverage fails the test below.
COVERED_KERNELS = {
    "scatter_sum",
    "segment_div",
    "segment_sums",
    "pairwise_sq_dists",
    "stacked_step_gradients",
    "row_diff_norms",
}


class TestDispatchTable:
    def test_every_table_kernel_has_parity_coverage(self):
        assert set(kernels.DISPATCH_TABLE) == COVERED_KERNELS

    def test_every_table_kernel_exists_on_both_backends(self):
        for name in kernels.DISPATCH_TABLE:
            assert callable(getattr(kernels, name))
            assert callable(getattr(REFERENCE, name))
            if NATIVE is not None:
                assert callable(getattr(NATIVE, name))


# ----------------------------------------------------------------------
# Dispatcher semantics
# ----------------------------------------------------------------------


class TestDispatcher:
    def test_default_backend_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert kernels.resolve(None).name == "numpy"
        assert kernels.active().name == "numpy"

    def test_env_override_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert kernels.resolve(None).name == "numpy"

    @needs_native
    def test_env_override_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "native")
        assert kernels.resolve(None) is NATIVE
        assert kernels.active() is NATIVE

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve("cuda")

    def test_resolve_returns_singletons(self):
        assert kernels.resolve("numpy") is kernels.resolve("numpy")

    @needs_native
    def test_use_scopes_and_nests(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert kernels.active().name == "numpy"
        with kernels.use("native") as backend:
            assert backend is NATIVE
            assert kernels.active() is NATIVE
            with kernels.use("numpy"):
                assert kernels.active().name == "numpy"
            assert kernels.active() is NATIVE
        assert kernels.active().name == "numpy"

    @needs_native
    def test_use_accepts_resolved_backend_object(self):
        with kernels.use(NATIVE):
            assert kernels.active() is NATIVE

    @needs_native
    def test_dispatch_functions_follow_active_backend(self):
        lengths = np.array([2, 1], dtype=np.int64)
        values = np.array([2.0, 4.0, 9.0])
        expected = REFERENCE.segment_div(values, lengths)
        with kernels.use("native"):
            assert_bit_identical(kernels.segment_div(values, lengths), expected)
        assert_bit_identical(kernels.segment_div(values, lengths), expected)


# ----------------------------------------------------------------------
# No-silent-fallback guard
# ----------------------------------------------------------------------


class TestNativeUnavailableGuard:
    def test_resolve_native_without_toolchain_raises(self, monkeypatch):
        monkeypatch.setattr(kernels, "_instances", {})
        monkeypatch.setattr(_native, "_find_compiler", lambda: None)
        with pytest.raises(NativeKernelsUnavailable, match="no C compiler"):
            kernels.resolve("native")

    def test_simulation_construction_fails_fast(
        self, monkeypatch, tiny_dataset
    ):
        monkeypatch.setattr(kernels, "_instances", {})
        monkeypatch.setattr(_native, "_find_compiler", lambda: None)
        config = ExperimentConfig(
            dataset=DatasetConfig(name="custom"),
            model=ModelConfig(kind="mf", embedding_dim=8, seed=3),
            train=TrainConfig(rounds=2, users_per_round=8, kernels="native"),
            seed=3,
        )
        with pytest.raises(NativeKernelsUnavailable):
            FederatedSimulation(config, dataset=tiny_dataset)

    def test_missing_source_raises(self, monkeypatch):
        monkeypatch.setattr(kernels, "_instances", {})
        monkeypatch.setattr(
            _native, "_SOURCE", _native._SOURCE.with_name("_missing.c")
        )
        with pytest.raises(NativeKernelsUnavailable, match="source not found"):
            kernels.resolve("native")


# ----------------------------------------------------------------------
# Counted per-call dtype fallbacks + engine round accounting
# ----------------------------------------------------------------------


@needs_native
class TestFallbackAccounting:
    def test_f32_pairwise_falls_back_counted_and_exact(self):
        flat = np.random.default_rng(5).standard_normal((2, 4, 6)).astype(
            np.float32
        )
        before = NATIVE.fallback_calls
        out = NATIVE.pairwise_sq_dists(flat)
        assert NATIVE.fallback_calls == before + 1
        assert_bit_identical(out, REFERENCE.pairwise_sq_dists(flat))

    def test_f16_segment_div_falls_back_counted_and_exact(self):
        lengths = np.array([2, 3], dtype=np.int64)
        values = np.arange(5, dtype=np.float16)
        before = NATIVE.fallback_calls
        out = NATIVE.segment_div(values, lengths)
        assert NATIVE.fallback_calls == before + 1
        assert_bit_identical(out, REFERENCE.segment_div(values, lengths))

    def test_native_served_calls_do_not_count(self):
        before = NATIVE.fallback_calls
        NATIVE.segment_div(np.ones(3), np.array([3], dtype=np.int64))
        assert NATIVE.fallback_calls == before


class _FallbackStub:
    """A backend that reports one counted fallback per segment_div call."""

    name = "native"

    def __init__(self, inner):
        self._inner = inner
        self.fallback_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def segment_div(self, values, lengths):
        self.fallback_calls += 1
        return self._inner.segment_div(values, lengths)


class TestEngineFallbackRounds:
    def test_rounds_with_fallbacks_are_counted_once(self, tiny_dataset):
        config = ExperimentConfig(
            dataset=DatasetConfig(name="custom"),
            model=ModelConfig(kind="mf", embedding_dim=8, seed=3),
            train=TrainConfig(rounds=2, users_per_round=8, lr=1.0),
            seed=3,
        )
        sim = FederatedSimulation(config, dataset=tiny_dataset)
        engine = sim._batch_engine
        stub = _FallbackStub(kernels.resolve("numpy"))
        engine.kernel_backend = stub
        sim.run_round(0)
        # segment_div runs many times per round; the round counts once.
        assert stub.fallback_calls >= 1
        assert engine.kernel_fallback_rounds == 1
        sim.run_round(1)
        assert engine.kernel_fallback_rounds == 2

    def test_clean_rounds_count_zero(self, tiny_dataset):
        config = ExperimentConfig(
            dataset=DatasetConfig(name="custom"),
            model=ModelConfig(kind="mf", embedding_dim=8, seed=3),
            train=TrainConfig(rounds=2, users_per_round=8, lr=1.0),
            seed=3,
        )
        sim = FederatedSimulation(config, dataset=tiny_dataset)
        sim.run_round(0)
        assert sim._batch_engine.kernel_fallback_rounds == 0


# ----------------------------------------------------------------------
# scatter_sum int32 index-overflow regression
# ----------------------------------------------------------------------


class TestScatterIndexOverflow:
    def test_composite_indices_upcast_beyond_int32(self):
        # 99_999 * 30_000 = 2.99e9 > 2**31 - 1: the pre-fix composite
        # (item_ids[:, None] * dim in the ids' own dtype) wrapped
        # negative here under NumPy 2 weak promotion.
        ids = np.array([99_999], dtype=np.int32)
        dim = 30_000
        out = composite_indices(ids, dim)
        assert out.dtype == np.int64
        assert out[0] == 99_999 * 30_000
        assert out[-1] == 99_999 * 30_000 + dim - 1
        assert (out >= 0).all()

    @given(
        data=st.data(),
        num_items=st.integers(1, 50),
        dim=st.integers(1, 8),
        rows=st.integers(0, 30),
    )
    @SWEEP
    def test_int32_and_int64_ids_are_equivalent(self, data, num_items, dim, rows):
        ids64 = data.draw(
            arrays(np.int64, (rows,), elements=st.integers(0, num_items - 1))
        )
        assert_bit_identical(
            composite_indices(ids64.astype(np.int32), dim),
            composite_indices(ids64, dim),
        )

    def test_scatter_sum_int32_ids_match_int64(self):
        rng = np.random.default_rng(23)
        ids64 = rng.integers(0, 100, size=500)
        grads = rng.standard_normal((500, 16))
        assert_bit_identical(
            kernels.scatter_sum(ids64.astype(np.int32), grads, 100),
            kernels.scatter_sum(ids64, grads, 100),
        )


# ----------------------------------------------------------------------
# End-to-end engine parity: numpy vs native, full simulation
# ----------------------------------------------------------------------


@needs_native
class TestEndToEndBackendParity:
    def _run(self, tiny_dataset, backend: str, defense: str):
        config = ExperimentConfig(
            dataset=DatasetConfig(name="custom"),
            model=ModelConfig(kind="mf", embedding_dim=8, seed=3),
            train=TrainConfig(
                rounds=6, users_per_round=24, lr=1.0, kernels=backend
            ),
            attack=AttackConfig(
                name="pieck_uea", malicious_ratio=0.15, mining_rounds=2
            ),
            defense=DefenseConfig(name=defense),
            seed=3,
        )
        sim = FederatedSimulation(config, dataset=tiny_dataset)
        result = sim.run()
        return sim, result

    def test_one_dimensional_embeddings_bit_identical(self, tiny_dataset):
        # At embedding_dim=1 every client's user-gradient sum is an
        # (L, 1) segment: the case NumPy would reduce pairwise.
        digests = []
        for backend in ("numpy", "native"):
            config = ExperimentConfig(
                dataset=DatasetConfig(name="custom"),
                model=ModelConfig(kind="mf", embedding_dim=1, seed=3),
                train=TrainConfig(rounds=5, users_per_round=24, lr=1.0, kernels=backend),
                seed=3,
            )
            sim = FederatedSimulation(config, dataset=tiny_dataset)
            sim.run()
            digests.append(
                (
                    sim.model.item_embeddings.tobytes(),
                    sim.user_embedding_matrix().tobytes(),
                )
            )
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("defense", ["none", "multi_krum"])
    def test_trajectories_bit_identical(self, tiny_dataset, defense):
        sim_np, res_np = self._run(tiny_dataset, "numpy", defense)
        sim_nat, res_nat = self._run(tiny_dataset, "native", defense)
        assert sim_nat.kernel_backend is NATIVE
        assert_bit_identical(
            sim_nat.model.item_embeddings, sim_np.model.item_embeddings
        )
        assert_bit_identical(
            sim_nat.user_embedding_matrix(), sim_np.user_embedding_matrix()
        )
        assert res_nat.exposure == res_np.exposure
        assert res_nat.hit_ratio == res_np.hit_ratio
        assert sim_nat._batch_engine.kernel_fallback_rounds == 0


def _cpu_has_fma() -> bool:
    """x86-64 with the FMA3 extension (``-mfma`` code can run here)."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        with open("/proc/cpuinfo") as info:
            return any(
                line.startswith("flags") and " fma " in f"{line} "
                for line in info
            )
    except OSError:
        return False


@needs_native
@pytest.mark.skipif(not _cpu_has_fma(), reason="CPU without FMA3")
class TestFusedMultiplyAddBuild:
    """A build allowed to emit FMA instructions keeps bit parity.

    With ``-mfma`` the compiler would fuse ``acc + x * y`` into one
    FMA (one rounding instead of two) unless ``-ffp-contract=off``
    forbids it; the x86-64 baseline has no FMA and so hides the
    difference, targets whose baseline has it (aarch64) do not.
    """

    def test_every_kernel_matches_reference(self, monkeypatch, tmp_path):
        monkeypatch.setattr(_native, "_CFLAGS", [*_native._CFLAGS, "-mfma"])
        monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
        backend = _native.NativeBackend(
            *_native._dlopen(_native._build_shared_library())
        )
        rng = np.random.default_rng(29)
        lengths = rng.integers(0, 6, size=40)
        rows = rng.standard_normal((int(lengths.sum()), 16))
        ids = rng.integers(0, 50, size=300)
        grads = rng.standard_normal((300, 16))
        old = rng.standard_normal((64, 16))
        new = old + rng.standard_normal((64, 16))
        flat = rng.standard_normal((3, 9, 16))
        values = rng.standard_normal(int(lengths.sum()))
        for name, args in [
            ("scatter_sum", (ids, grads, 50)),
            ("segment_div", (values, lengths)),
            ("segment_sums", (rows, lengths, 16)),
            ("pairwise_sq_dists", (flat,)),
            ("stacked_step_gradients", (old, new, 0.5, 1.5)),
            ("row_diff_norms", (old, new)),
        ]:
            assert_bit_identical(
                getattr(backend, name)(*args), getattr(REFERENCE, name)(*args)
            )
