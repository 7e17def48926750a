"""Property tests: lease protocol invariants and verify-on-read.

Two families of randomised contracts:

* **Lease claim/expiry/reclaim** — under any interleaving of claims,
  releases, expiries and reclaims by any number of owners, the lease
  file holds at most one owner record, at most one reclaimer confirms
  per read window, and a ``SweepRunner`` drain over a grid with
  arbitrarily planted stale and live leases loses no cell.
* **Verify-on-read** — for any truncation or bit-flip of a
  digest-stamped artifact, the loader either returns the original
  values or refuses (quarantine / miss); it never crashes with an
  unstructured error and never silently returns wrong data.
"""

from __future__ import annotations

import functools
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DatasetConfig, ExperimentConfig, ModelConfig, TrainConfig
from repro.datasets.loaders import load_dataset
from repro.experiments.backend import (
    lease_path_for,
    read_lease,
    release_lease,
    try_claim_lease,
    try_reclaim_lease,
)
from repro.experiments.sweep import (
    CellSpec,
    SweepRunner,
    cell_cache_key,
    dataset_fingerprint,
    register_cell_kind,
)
from repro.persistence import (
    IntegrityError,
    QUARANTINE_SUFFIX,
    load_result,
    load_sweep_entry,
    read_sweep_entry,
    save_result,
    save_sweep_entry,
)

FAST = settings(max_examples=60, deadline=None)


_DATASET = DatasetConfig(name="custom", scale=0.08, seed=5)


@functools.lru_cache(maxsize=1)
def _dataset():
    return load_dataset(_DATASET)


def _payload_index(spec: CellSpec, dataset) -> list[list[float]]:
    return [[float(spec.payload[0])]]


register_cell_kind("test_prop_index", _payload_index)


# ----------------------------------------------------------------------
# Lease protocol
# ----------------------------------------------------------------------

#: One protocol step: (owner index, action).  "claim" uses O_CREAT|O_EXCL,
#: "reclaim" the atomic takeover, "release" unlinks, "expire" backdates
#: the mtime (simulating a heartbeat that stopped ttl ago).
_ACTIONS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from(["claim", "reclaim", "release", "expire"]),
    ),
    min_size=1,
    max_size=24,
)


class TestLeaseProtocolInvariants:
    @FAST
    @given(actions=_ACTIONS)
    def test_at_most_one_owner_record_at_all_times(self, tmp_path_factory, actions):
        tmp_path = tmp_path_factory.mktemp("lease")
        path = str(tmp_path / "cell.json.lease")
        counters = [0, 0, 0, 0]
        confirmed: str | None = None  # token of the last confirmed owner
        for owner_idx, action in actions:
            counters[owner_idx] += 1
            token = f"w{owner_idx}#{counters[owner_idx]}"
            record = {"owner": f"w{owner_idx}", "token": token}
            if action == "claim":
                if try_claim_lease(path, record):
                    confirmed = token
            elif action == "reclaim":
                if try_reclaim_lease(path, record, token):
                    confirmed = token
            elif action == "release":
                release_lease(path)
                confirmed = None
            elif action == "expire":
                if os.path.exists(path):
                    stale = time.time() - 3600
                    os.utime(path, (stale, stale))
            # Invariant: the file holds exactly one complete record,
            # and (absent interleaved writers) it is the last
            # confirmed owner's.
            current = read_lease(path)
            if current is None:
                # File absent: nobody can believe they own the cell.
                assert confirmed is None
            else:
                assert set(current) == {"owner", "token"}
                if confirmed is not None:
                    assert current["token"] == confirmed

    @FAST
    @given(
        stale_cells=st.sets(st.integers(0, 7), max_size=8),
        live_cells=st.sets(st.integers(0, 7), max_size=3),
    )
    def test_drain_loses_no_cell(self, tmp_path_factory, stale_cells, live_cells):
        """Any mix of stale (dead-owner) and unclaimed cells drains fully.

        Cells with a *live* lease are finished by "the peer" out of band
        on the drain's second pass, modelling a healthy run: the drain
        must adopt those results rather than spin on them.
        """
        import repro.experiments.sweep as sweep_mod

        tmp_path = tmp_path_factory.mktemp("grid")
        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        live_cells = live_cells - stale_cells
        total = 8
        dataset = _dataset()
        config = ExperimentConfig(
            dataset=_DATASET,
            model=ModelConfig(kind="mf", embedding_dim=8, seed=3),
            train=TrainConfig(rounds=2, users_per_round=8, lr=1.0),
            seed=3,
        )
        specs = [
            CellSpec(config=config, kind="test_prop_index", payload=(index,))
            for index in range(total)
        ]
        fp = dataset_fingerprint(dataset)
        keys = [cell_cache_key(spec, fp) for spec in specs]
        paths = [os.path.join(cache_dir, f"{key}.json") for key in keys]
        for index in stale_cells:
            lease = lease_path_for(paths[index])
            try_claim_lease(lease, {"owner": "dead", "token": f"dead#{index}"})
            stale = time.time() - 3600
            os.utime(lease, (stale, stale))
        for index in live_cells:
            lease = lease_path_for(paths[index])
            try_claim_lease(lease, {"owner": "live", "token": f"live#{index}"})

        real_read = sweep_mod.read_sweep_entry
        reads: dict[str, int] = {}

        def read(path):
            # Reads of a cell: the cache pass, the first pass's re-check
            # (the lease is live: busy), then the second pass's.
            reads[path] = reads.get(path, 0) + 1
            index = paths.index(path)
            if index in live_cells and reads[path] == 3:
                save_sweep_entry(
                    path, key=keys[index], kind="test_prop_index",
                    values=[[float(index)]],
                )
                release_lease(lease_path_for(path))
            return real_read(path)

        sweep_mod.read_sweep_entry = read
        try:
            runner = SweepRunner(cache_dir=cache_dir, lease_ttl=5.0, cell_timeout=30.0)
            results = runner.run(specs, {"default": dataset})
        finally:
            sweep_mod.read_sweep_entry = real_read
        # No cell lost: every slot filled with its own value.
        assert results == [[[float(i)]] for i in range(total)]
        # Every dead run's lease was reclaimed and counted as a retry.
        stats = runner.last_stats
        assert stats.retries == len(stale_cells)
        assert stats.peer_served == len(live_cells)
        assert stats.executed == total - len(live_cells)
        # No lease survives a finished drain.
        assert not [
            name for name in os.listdir(cache_dir) if name.endswith(".lease")
        ]


# ----------------------------------------------------------------------
# Verify-on-read over corrupted artifacts
# ----------------------------------------------------------------------

def _saved_entry(tmp_path) -> tuple[str, dict]:
    path = str(tmp_path / "entry.json")
    values = [[1.25, 2.5], [3.0, 4.75]]
    save_sweep_entry(path, key="k1", kind="er_hr", values=values)
    return path, {"key": "k1", "kind": "er_hr", "values": values}


class TestVerifyOnReadProperties:
    @FAST
    @given(cut=st.integers(0, 200), data=st.data())
    def test_sweep_entry_truncation_never_lies(self, tmp_path_factory, cut, data):
        tmp_path = tmp_path_factory.mktemp("trunc")
        path, original = _saved_entry(tmp_path)
        blob = open(path, "rb").read()
        cut = min(cut, len(blob))
        with open(path, "wb") as handle:
            handle.write(blob[:cut])
        entry = load_sweep_entry(path)
        if cut == len(blob):
            assert entry == original  # untouched file still loads
        else:
            assert entry is None  # truncated: a miss, never garbage

    @FAST
    @given(
        offset=st.integers(0, 10_000),
        bit=st.integers(0, 7),
    )
    def test_sweep_entry_bit_flip_never_lies(self, tmp_path_factory, offset, bit):
        tmp_path = tmp_path_factory.mktemp("flip")
        path, original = _saved_entry(tmp_path)
        blob = bytearray(open(path, "rb").read())
        offset = offset % len(blob)
        blob[offset] ^= 1 << bit
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        entry, status = read_sweep_entry(path)
        # Either the flip produced undecodable/mismatching bytes (the
        # entry is quarantined or refused) or — only if the bytes are
        # exactly the original, which a real flip never is — it loads.
        if entry is not None:
            assert entry["values"] == original["values"]
            assert status == "verified"
        else:
            assert status in ("quarantined", "foreign")
        # Never both: a quarantined file is gone from its path.
        if status == "quarantined":
            assert not os.path.exists(path)
            assert os.path.exists(path + QUARANTINE_SUFFIX)

    @FAST
    @given(cut=st.integers(0, 4000))
    def test_result_truncation_raises_integrity_error(self, tmp_path_factory, cut):
        import numpy as np

        from repro.federated.simulation import EvalRecord, SimulationResult

        tmp_path = tmp_path_factory.mktemp("result")
        path = str(tmp_path / "result.json")
        result = SimulationResult(
            exposure=0.25,
            hit_ratio=0.5,
            targets=np.array([3, 7]),
            rounds_run=100,
            history=[EvalRecord(50, 0.1, 0.4), EvalRecord(100, 0.25, 0.5)],
            seconds_per_round=0.01,
        )
        save_result(result, path)
        blob = open(path, "rb").read()
        # Cut at least the closing brace: dropping only the trailing
        # newline leaves the JSON content (and hence its digest) intact,
        # which correctly still loads.
        cut = min(cut, len(blob) - 2)
        with open(path, "wb") as handle:
            handle.write(blob[:cut])
        with pytest.raises((IntegrityError, ValueError)):
            load_result(path)
        # A positively identified corruption is moved aside.
        if not os.path.exists(path):
            assert os.path.exists(path + QUARANTINE_SUFFIX)
