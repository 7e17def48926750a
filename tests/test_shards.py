"""Sharded shared-memory client store: parity, lifecycle, hygiene.

Sharding is a pure re-layout of the client state store: row ``u``
lives in exactly one shard segment and every read/write API is
bit-identical to the default one-heap-shard store.  These tests pin
that contract (shm and mmap stores at several shard counts against
heap/1), the manifest round-trip, segment lifecycle (refcounts,
unlink-on-close, fork-inheritance guard), orphan detection for
``repro fsck``, and gather/scatter with narrow id dtypes.
"""

import glob
import json
import multiprocessing
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TrainConfig
from repro.datasets.sampling import ragged_csr, sample_local_batch
from repro.datasets.synthetic import generate_longtail_dataset
from repro.federated.batch_engine import _bce_stacks_fn, _bpr_stacks_fn
from repro.federated.shards import (
    CSRRaggedList,
    EmbeddingMatrixView,
    ShardManifest,
    ShardedStateStore,
    SharedDatasetExport,
    list_repro_segments,
    orphaned_segments,
    segment_prefix,
    shard_bounds,
    shared_memory_available,
    unlink_segment,
)
from repro.models.base import build_model
from repro.rng import spawn, spawn_batch

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="/dev/shm not available"
)


def make_dataset(users=50, items=40, seed=5):
    return generate_longtail_dataset(
        num_users=users, num_items=items, num_interactions=users * 8, seed=seed
    )


def make_stores(dataset, *, num_shards=4, backend="shm", lr_range=None, seed=9):
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
# Shard assignment and manifest (property-based)
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


class TestManifest:
    @given(
        num_users=st.integers(min_value=1, max_value=300),
        num_shards=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_manifest_json_round_trip(self, num_users, num_shards, seed):
        bounds = shard_bounds(num_users, num_shards)
        manifest = ShardManifest(
            token="deadbeef0000",
            pid=os.getpid(),
            backend="shm",
            num_users=num_users,
            num_items=17,
            embedding_dim=6,
            seed=seed,
            config_digest="d" * 64,
            shards=tuple(
                (int(bounds[s]), int(bounds[s + 1]), 3)
                for s in range(len(bounds) - 1)
            ),
            segments=tuple(
                {"emb": f"repro_shm_1_t_emb_{s:04d}"}
                for s in range(len(bounds) - 1)
            ),
            lr_range=None,
        )
        restored = ShardManifest.from_json(manifest.to_json())
        assert restored == manifest
        assert np.array_equal(restored.bounds(), bounds)

    def test_unknown_version_rejected(self):
        ds = make_dataset(users=10)
        _, sharded = make_stores(ds, num_shards=2)
        record = json.loads(sharded.manifest.to_json())
        record["version"] = "shards-v999"
        with pytest.raises(ValueError, match="version"):
            ShardManifest.from_json(json.dumps(record))
        sharded.close()


# ----------------------------------------------------------------------
# Heap/1 vs sharded parity
# ----------------------------------------------------------------------


class TestStoreParity:
    @pytest.mark.parametrize("backend", ["shm", "mmap"])
    @pytest.mark.parametrize("num_shards", [1, 3, 7])
    def test_full_surface_matches_dense(self, backend, num_shards):
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
# Attach semantics
# ----------------------------------------------------------------------


class TestAttach:
    def test_subset_attach_serves_only_its_shards(self):
        ds = make_dataset()
        dense, sharded = make_stores(ds, num_shards=4)
        try:
            bounds = sharded.manifest.bounds()
            attached = ShardedStateStore.attach(
                sharded.manifest.to_json(), shard_ids=[2]
            )
            try:
                lo, hi = int(bounds[2]), int(bounds[3])
                ids = np.arange(lo, hi)
                assert np.array_equal(
                    attached.gather_rows(ids), dense.gather_rows(ids)
                )
                with pytest.raises(KeyError):
                    attached.gather_rows(np.array([0]))
            finally:
                attached.close()
        finally:
            sharded.close()

    def test_attached_writes_are_visible_to_creator(self):
        ds = make_dataset(users=12)
        _, sharded = make_stores(ds, num_shards=2)
        try:
            attached = ShardedStateStore.attach(sharded.manifest.to_json())
            try:
                attached.set_row(5, np.full(6, -1.25))
                assert np.array_equal(sharded.row(5), np.full(6, -1.25))
            finally:
                attached.close()
        finally:
            sharded.close()

    def test_attach_in_forked_child(self):
        ds = make_dataset(users=16)
        dense, sharded = make_stores(ds, num_shards=2)
        manifest_json = sharded.manifest.to_json()
        expected = dense.snapshot_embeddings()

        def child(conn):
            attached = ShardedStateStore.attach(manifest_json)
            conn.send(attached.snapshot_embeddings())
            attached.close()

        try:
            ctx = multiprocessing.get_context("fork")
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=child, args=(child_conn,))
            proc.start()
            got = parent_conn.recv()
            proc.join(timeout=10)
            assert proc.exitcode == 0
            assert np.array_equal(got, expected)
            # The child exiting must NOT have unlinked the parent's
            # segments (the finalizer is pid-guarded against fork
            # inheritance).
            assert np.array_equal(sharded.snapshot_embeddings(), expected)
        finally:
            sharded.close()

    def test_stale_manifest_rejected(self):
        ds = make_dataset(users=10)
        _, sharded = make_stores(ds, num_shards=2)
        record = json.loads(sharded.manifest.to_json())
        record["pid"] = 2**22 + 1  # beyond default pid_max: never alive
        try:
            with pytest.raises(RuntimeError, match="stale"):
                ShardedStateStore.attach(json.dumps(record))
            ShardedStateStore.attach(
                json.dumps(record), allow_stale=True
            ).close()
        finally:
            sharded.close()

    def test_mmap_backend_refuses_manifest_attach(self):
        ds = make_dataset(users=10)
        _, sharded = make_stores(ds, num_shards=2, backend="mmap")
        try:
            with pytest.raises(RuntimeError, match="mmap"):
                ShardedStateStore.attach(sharded.manifest.to_json())
        finally:
            sharded.close()


# ----------------------------------------------------------------------
# Lifecycle: unlink on close, orphan hygiene
# ----------------------------------------------------------------------


def _shm_names(token):
    return glob.glob(f"/dev/shm/repro_shm_*{token}*")


class TestLifecycle:
    def test_close_unlinks_every_segment(self):
        ds = make_dataset(users=10)
        _, sharded = make_stores(ds, num_shards=3)
        token = sharded.manifest.token
        assert _shm_names(token)
        sharded.close()
        assert _shm_names(token) == []

    def test_orphan_detection_and_repair(self, tmp_path):
        from repro.persistence import fsck_paths

        def victim():
            ds = make_dataset(users=8)
            store = ShardedStateStore.build(
                ds.train_pos, ds.num_items, 4, seed=1, num_shards=2,
                backend="shm",
            )
            # Die without running any finalizer, like a SIGKILLed
            # round worker.
            os.kill(os.getpid(), signal.SIGKILL)

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=victim)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == -signal.SIGKILL

        orphans = [
            r for r in orphaned_segments() if r["pid"] == proc.pid
        ]
        assert orphans, "SIGKILLed creator left no detectable orphans"
        report = fsck_paths(str(tmp_path))
        assert report.shm_orphans >= len(orphans)
        assert not report.clean
        repaired = fsck_paths(str(tmp_path), repair=True)
        assert repaired.shm_unlinked >= len(orphans)
        assert repaired.clean
        assert [
            r for r in orphaned_segments() if r["pid"] == proc.pid
        ] == []

    def test_live_segments_are_not_orphans(self):
        ds = make_dataset(users=8)
        _, sharded = make_stores(ds, num_shards=2)
        try:
            live = {r["name"] for r in list_repro_segments() if r["alive"]}
            mine = set(
                name
                for names in sharded.manifest.segments
                for name in names.values()
            )
            assert mine <= live
            assert not any(
                r["name"] in mine for r in orphaned_segments()
            )
        finally:
            sharded.close()

    def test_foreign_names_never_touched(self):
        with pytest.raises(ValueError, match="foreign"):
            unlink_segment("psm_something_else")
        assert not any(
            r["name"] == "totally_foreign"
            for r in list_repro_segments()
        )

    def test_segment_prefix_embeds_pid(self):
        prefix = segment_prefix(1234, "cafe")
        assert prefix == "repro_shm_1234_cafe_"


# ----------------------------------------------------------------------
# Shared dataset export (sweep pool transport)
# ----------------------------------------------------------------------


class TestSharedDatasetExport:
    def test_round_trip_preserves_dataset(self):
        ds = make_dataset(users=30)
        export = SharedDatasetExport.create(ds)
        try:
            attached = SharedDatasetExport.attach(export.manifest)
            try:
                got = attached.dataset
                assert got.num_users == ds.num_users
                assert got.num_items == ds.num_items
                assert isinstance(got.train_pos, CSRRaggedList)
                for u in range(ds.num_users):
                    assert np.array_equal(got.train_pos[u], ds.train_pos[u])
                assert np.array_equal(got.test_items, ds.test_items)
                assert np.array_equal(got.popularity(), ds.popularity())
                assert np.array_equal(
                    got.covered_users(np.array([0, 1])),
                    ds.covered_users(np.array([0, 1])),
                )
            finally:
                attached.close()
        finally:
            export.close()
        leftover = [
            r
            for r in list_repro_segments()
            if r["name"] in set(export.manifest["segments"].values())
        ]
        assert leftover == []

    def test_dead_creator_rejected(self):
        ds = make_dataset(users=8)
        export = SharedDatasetExport.create(ds)
        manifest = dict(export.manifest)
        manifest["pid"] = 2**22 + 1
        try:
            with pytest.raises(RuntimeError, match="stale"):
                SharedDatasetExport.attach(manifest)
        finally:
            export.close()


# ----------------------------------------------------------------------
# Grouped lookups: id order, dtypes, views
# ----------------------------------------------------------------------


LAYOUTS = [(1, "heap"), (1, "shm"), (3, "shm"), (7, "mmap")]


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
            for shard in store._shards.values():
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
            for shard in store._shards.values():
                shard.emb = shard.emb.astype(np.float32)
            ids = np.array([19, 0, 10], dtype=np.int64)
            assert store.gather_rows(ids).dtype == np.float32
            assert store.embedding_block(0, ds.num_users).dtype == np.float32
            assert store.embedding_block(3, 3).dtype == np.float32
        finally:
            store.close()
