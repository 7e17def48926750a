"""Sharded client store: parity, fork inheritance, lifecycle.

Sharding is a pure re-layout of the client state store: row ``u``
lives in exactly one shard segment and every read/write API is
bit-identical to the default one-heap-shard store.  These tests pin
that contract (mmap stores at several shard counts against heap/1),
that forked children share the live mappings, that a closed store
refuses reads and a killed creator leaves nothing in ``/dev/shm``, and
gather/scatter with narrow id dtypes.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DatasetConfig, ExperimentConfig, ShardingConfig, TrainConfig
from repro.datasets.base import InteractionDataset
from repro.datasets.sampling import ragged_csr, sample_local_batch
from repro.datasets.synthetic import generate_longtail_dataset
from repro.federated.batch_engine import _bce_stacks_fn, _bpr_stacks_fn
from repro.federated.shards import (
    CSRRaggedList,
    EmbeddingMatrixView,
    ShardedStateStore,
    list_repro_segments,
    shard_bounds,
)
from repro.federated.simulation import FederatedSimulation
from repro.models.base import build_model
from repro.rng import spawn, spawn_batch


def make_dataset(users=50, items=40, seed=5):
    return generate_longtail_dataset(
        num_users=users, num_items=items, num_interactions=users * 8, seed=seed
    )


#: ``(num_shards, backend)``: the default store and the sharded ones.
LAYOUTS = [(1, "heap"), (1, "mmap"), (3, "mmap"), (7, "mmap")]


def make_stores(dataset, *, num_shards=4, backend="mmap", lr_range=None, seed=9):
    """``(heap/1 store, store under test)`` over the same dataset."""
    dense = ShardedStateStore.build(
        dataset.train_pos, dataset.num_items, 6, seed=seed, init_scale=0.1,
        lr_range=lr_range,
    )
    sharded = ShardedStateStore.build(
        dataset.train_pos,
        dataset.num_items,
        6,
        seed=seed,
        init_scale=0.1,
        num_shards=num_shards,
        backend=backend,
        lr_range=lr_range,
    )
    return dense, sharded


# ----------------------------------------------------------------------
# Shard assignment (property-based)
# ----------------------------------------------------------------------


class TestShardBounds:
    @given(
        num_users=st.integers(min_value=0, max_value=5000),
        num_shards=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_user_in_exactly_one_shard(self, num_users, num_shards):
        bounds = shard_bounds(num_users, num_shards)
        assert bounds[0] == 0 and bounds[-1] == num_users
        assert np.all(np.diff(bounds) >= 0)
        # Contiguous half-open ranges partition [0, num_users): each
        # user id is covered once and shard sizes differ by at most 1.
        sizes = np.diff(bounds)
        assert sizes.sum() == num_users
        if num_users >= num_shards:
            assert sizes.max() - sizes.min() <= 1
            assert sizes.min() >= 1

    @given(num_shards=st.integers(min_value=1, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_shards_clamped_to_user_count(self, num_shards):
        bounds = shard_bounds(7, num_shards)
        assert len(bounds) - 1 == min(num_shards, 7)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 0)


# ----------------------------------------------------------------------
# Heap/1 vs sharded parity
# ----------------------------------------------------------------------


class TestStoreParity:
    @pytest.mark.parametrize("num_shards, backend", LAYOUTS[1:])
    def test_full_surface_matches_dense(self, num_shards, backend):
        ds = make_dataset()
        dense, sharded = make_stores(
            ds, num_shards=num_shards, backend=backend, lr_range=(0.01, 0.1)
        )
        try:
            assert sharded.num_users == dense.num_users
            assert sharded.embedding_dim == dense.embedding_dim
            rng = np.random.default_rng(0)
            ids = rng.permutation(ds.num_users)[: ds.num_users // 2]
            assert np.array_equal(
                sharded.gather_rows(ids), dense.gather_rows(ids)
            )
            assert np.array_equal(
                sharded.snapshot_embeddings(), dense.snapshot_embeddings()
            )
            assert np.array_equal(
                sharded.embedding_block(5, 31), dense.embedding_block(5, 31)
            )
            for u in (0, ds.num_users // 2, ds.num_users - 1):
                assert np.array_equal(sharded.row(u), dense.row(u))
                assert np.array_equal(sharded.positives(u), dense.positives(u))
            assert np.array_equal(
                sharded.train_mask_block(3, 29), dense.train_mask_block(3, 29)
            )
            everyone = np.arange(ds.num_users)
            assert np.array_equal(
                sharded.client_lrs(everyone), dense.client_lrs(everyone)
            )
            assert np.array_equal(sharded.client_lrs(ids), dense.client_lrs(ids))
            rows = rng.normal(size=(len(ids), 6))
            sharded.scatter_rows(ids, rows)
            dense.scatter_rows(ids, rows)
            assert np.array_equal(
                sharded.snapshot_embeddings(), dense.snapshot_embeddings()
            )
            sharded.set_row(1, np.full(6, 2.5))
            dense.set_row(1, np.full(6, 2.5))
            assert np.array_equal(sharded.row(1), dense.row(1))
        finally:
            sharded.close()

    def test_load_embeddings_round_trip(self):
        ds = make_dataset(users=20)
        dense, sharded = make_stores(ds, num_shards=3)
        try:
            snapshot = dense.snapshot_embeddings()
            sharded.scatter_rows(
                np.arange(ds.num_users),
                np.zeros((ds.num_users, 6)),
            )
            sharded.load_embeddings(snapshot)
            assert np.array_equal(sharded.snapshot_embeddings(), snapshot)
        finally:
            sharded.close()

    def test_embedding_matrix_view_slices(self):
        ds = make_dataset(users=25)
        dense, sharded = make_stores(ds, num_shards=4)
        try:
            view = EmbeddingMatrixView(sharded)
            assert len(view) == ds.num_users
            assert view.shape == (ds.num_users, 6)
            assert np.array_equal(view[4:19], dense.embedding_block(4, 19))
            assert np.array_equal(view[3], dense.row(3))
            with pytest.raises(ValueError):
                view[::2]
        finally:
            sharded.close()


# ----------------------------------------------------------------------
# Fork inheritance: children share the live mappings
# ----------------------------------------------------------------------


class TestAttach:
    def test_attached_writes_are_visible_to_creator(self):
        """A forked child writes through its inherited mapping."""
        ds = make_dataset(users=12)
        _, sharded = make_stores(ds, num_shards=2)
        try:
            proc = multiprocessing.get_context("fork").Process(
                target=sharded.set_row, args=(5, np.full(6, -1.25))
            )
            proc.start()
            proc.join(timeout=10)
            assert proc.exitcode == 0
            assert np.array_equal(sharded.row(5), np.full(6, -1.25))
        finally:
            sharded.close()

    def test_attach_in_forked_child(self):
        """A child forked once sees the parent's later writes."""
        ds = make_dataset(users=16)
        dense, sharded = make_stores(ds, num_shards=2)
        expected = dense.snapshot_embeddings()
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()

        def child():
            child_conn.recv()  # the parent has written
            child_conn.send(sharded.snapshot_embeddings())

        proc = ctx.Process(target=child)
        proc.start()
        try:
            expected[3] = 7.5
            sharded.set_row(3, np.full(6, 7.5))
            parent_conn.send(None)
            got = parent_conn.recv()
            proc.join(timeout=10)
            assert proc.exitcode == 0
            assert np.array_equal(got, expected)
            # The child exiting left the parent's state intact.
            assert np.array_equal(sharded.snapshot_embeddings(), expected)
        finally:
            sharded.close()


# ----------------------------------------------------------------------
# Lifecycle: a closed store refuses reads, a crash leaves nothing behind
# ----------------------------------------------------------------------


def _tiny_config(num_shards: int) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom", scale=0.05, seed=3),
        train=TrainConfig(rounds=1, users_per_round=8, eval_every=0),
        sharding=ShardingConfig(num_shards=num_shards),
    )


class TestLifecycle:
    @pytest.mark.parametrize("num_shards", [0, 3])
    def test_closed_store_raises(self, num_shards):
        sim = FederatedSimulation(_tiny_config(num_shards))
        sim.close()
        sim.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            sim.run_round(0)
        with pytest.raises(RuntimeError, match="closed"):
            sim.evaluate()
        with pytest.raises(RuntimeError, match="closed"):
            list(map(sim.state.gather_rows, [[1], [2]]))

    def test_sigkilled_creator_leaves_no_segment(self):
        # A long-lived parent's resource tracker outlives the victim (as
        # in a test session or a pooled sweep), so nothing may count on
        # it to clean up after a crash.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()

        def victim():
            sim = FederatedSimulation(_tiny_config(4))  # noqa: F841 - held
            # Die holding the store, without running any finalizer,
            # like a SIGKILLed round worker.
            os.kill(os.getpid(), signal.SIGKILL)

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=victim)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == -signal.SIGKILL
        assert [r for r in list_repro_segments() if r["pid"] == proc.pid] == []


# ----------------------------------------------------------------------
# Datasets over CSR arrays (million-user builds)
# ----------------------------------------------------------------------


class TestCSRDataset:
    def test_from_csr_preserves_dataset(self):
        ds = make_dataset(users=30)
        got = InteractionDataset.from_csr(
            ds.name, ds.num_users, ds.num_items, *ds.train_csr(), ds.test_items
        )
        assert isinstance(got.train_pos, CSRRaggedList)
        for u in range(ds.num_users):
            assert np.array_equal(got.train_pos[u], ds.train_pos[u])
        assert np.array_equal(got.test_items, ds.test_items)
        assert np.array_equal(got.popularity(), ds.popularity())
        assert np.array_equal(
            got.covered_users(np.array([0, 1])),
            ds.covered_users(np.array([0, 1])),
        )


# ----------------------------------------------------------------------
# Grouped lookups: id order, dtypes, views
# ----------------------------------------------------------------------


class TestCompositeIndexOverflow:
    def test_gather_scatter_survive_wide_products(self):
        # Narrow (int32) ids index the same rows as int64 ones: no
        # id * dim product is ever formed in the ids' own dtype.
        ds = make_dataset(users=30)
        ids = np.array([7, 0, 29, 13], dtype=np.int32)
        rows = np.arange(len(ids) * 6, dtype=np.float64).reshape(-1, 6)
        for num_shards, backend in LAYOUTS:
            dense, store = make_stores(ds, num_shards=num_shards, backend=backend)
            try:
                expected = dense.snapshot_embeddings()[ids.astype(np.int64)]
                assert np.array_equal(store.gather_rows(ids), expected)
                store.scatter_rows(ids, rows)
                assert np.array_equal(
                    store.gather_rows(ids.astype(np.int64)), rows
                )
            finally:
                store.close()

    def test_store_gather_matches_fancy_indexing(self):
        ds = make_dataset(users=30)
        dense, sharded = make_stores(ds, num_shards=4)
        try:
            ids = np.array([7, 0, 29, 7], dtype=np.int32)
            matrix = dense.snapshot_embeddings()
            assert np.array_equal(dense.gather_rows(ids), matrix[ids])
            assert np.array_equal(sharded.gather_rows(ids), matrix[ids])
        finally:
            sharded.close()


class TestGroupedLookups:
    @pytest.mark.parametrize("num_shards, backend", LAYOUTS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_positives_list_matches_per_id_views(self, num_shards, backend, data):
        ds = make_dataset(users=23)
        _, store = make_stores(ds, num_shards=num_shards, backend=backend)
        try:
            ids = np.asarray(
                data.draw(
                    st.lists(st.integers(0, ds.num_users - 1), max_size=60)
                ),
                dtype=np.int64,
            )
            got = store.positives_list(ids)
            assert len(got) == len(ids)
            for user, entry in zip(ids.tolist(), got):
                assert np.array_equal(entry, store.positives(user))
                assert not entry.flags.owndata  # a view, never a copy
        finally:
            store.close()

    @pytest.mark.parametrize("num_shards, backend", LAYOUTS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_positives_csr_concatenates_positives_list(self, num_shards, backend, data):
        ds = make_dataset(users=23)
        _, store = make_stores(ds, num_shards=num_shards, backend=backend)
        try:
            ids = np.asarray(
                data.draw(
                    st.lists(st.integers(0, ds.num_users - 1), max_size=60)
                ),
                dtype=np.int64,
            )
            lengths, flat = store.positives_csr(ids)
            views = store.positives_list(ids)
            assert lengths.dtype == flat.dtype == np.int64
            assert lengths.tolist() == [len(view) for view in views]
            assert flat.tolist() == [j for view in views for j in view.tolist()]
            for shard in store._shards:
                assert not np.shares_memory(flat, shard.indices)  # a copy
        finally:
            store.close()

    @pytest.mark.parametrize("loss", ["bce", "bpr"])
    @pytest.mark.parametrize("num_shards, backend", LAYOUTS)
    def test_cohort_stacks_from_csr_equal_stacks_from_lists(
        self, num_shards, backend, loss
    ):
        # Users 3 and 11 hold more than half the catalogue: at q = 1
        # their negatives are scarce, so the sampler hands them to the
        # scalar oracle with their slice of the flat positives.
        num_items, seed, round_idx = 30, 4, 7
        rng = np.random.default_rng(2)
        train_pos = [
            np.sort(rng.choice(num_items, size=size, replace=False))
            for size in [2, 5, 0, 20, 1, 9, 3, 12, 4, 6, 2, 26, 8]
        ]
        store = ShardedStateStore.build(
            train_pos, num_items, 6, seed=seed, init_scale=0.1,
            num_shards=num_shards, backend=backend,
        )
        try:
            ids = rng.permutation(len(train_pos)).astype(np.int64)
            num_pos, flat_pos = store.positives_csr(ids)
            assert (num_pos > num_items - num_pos).any()
            model = build_model("mf", num_items, 6, seed=1)
            user_vecs = store.gather_rows(ids)

            def stacks(lengths, flat):
                rngs = spawn_batch(seed, ("client-round",), ids, (round_idx,))
                if loss == "bpr":
                    return _bpr_stacks_fn(model, lengths, flat, rngs, user_vecs)
                return _bce_stacks_fn(
                    model, TrainConfig(), lengths, flat, rngs, user_vecs
                )[:4]

            from_csr = stacks(num_pos, flat_pos)
            from_lists = stacks(*ragged_csr(store.positives_list(ids)))
            for got, expected in zip(from_csr, from_lists):
                assert got.tobytes() == expected.tobytes()
            if loss == "bce":
                item_ids, lengths = from_csr[0], from_csr[1]
                rows = [
                    sample_local_batch(
                        spawn(seed, "client-round", int(user), round_idx),
                        train_pos[user], num_items, 1,
                    )[0]
                    for user in ids.tolist()
                ]
                assert lengths.tolist() == [len(r) for r in rows]
                assert item_ids.tolist() == [j for r in rows for j in r.tolist()]
        finally:
            store.close()

    @pytest.mark.parametrize("num_shards, backend", LAYOUTS)
    def test_reduced_precision_rows_keep_their_dtype(self, num_shards, backend):
        ds = make_dataset(users=20)
        _, store = make_stores(ds, num_shards=num_shards, backend=backend)
        try:
            for shard in store._shards:
                shard.emb = shard.emb.astype(np.float32)
            ids = np.array([19, 0, 10], dtype=np.int64)
            assert store.gather_rows(ids).dtype == np.float32
            assert store.embedding_block(0, ds.num_users).dtype == np.float32
            assert store.embedding_block(3, 3).dtype == np.float32
        finally:
            store.close()
