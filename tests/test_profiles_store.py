"""The sharded profile store: atomicity, CAS, quarantine-as-miss.

Mirrors the durability contract the checkpoint store pins: a torn or
truncated shard file must degrade to a cache miss (quarantined aside,
counted, never an exception), while a *decodable* blob of the wrong
schema must fail loud. On top of that the profile store adds
compare-and-swap versioning and an LRU shard cache, both pinned here.
"""

import pickle

import pytest

from repro.exceptions import ConfigurationError, ProfileConflictError
from repro.profiles import (
    PROFILE_SNAPSHOT_SCHEMA,
    ProfileRecord,
    ProfileStore,
)
from repro.runtime import ManualClock
from repro.telemetry import MetricsRegistry
from repro.types import UserProfile

PROFILE = UserProfile(arm_length_m=0.7, leg_length_m=0.85, calibration_k=1.0)


def record(uid: str, **kwargs) -> ProfileRecord:
    return ProfileRecord(user_id=uid, profile=PROFILE, **kwargs)


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = ProfileStore(tmp_path, clock=ManualClock(100.0))
        committed = store.put(
            record("alice", observations=12, confidence=0.5)
        )
        assert committed.version == 1
        assert committed.updated_at == 100.0
        got = store.get("alice")
        assert got == committed
        assert got.profile == PROFILE
        assert got.observations == 12

    def test_get_absent_is_none(self, tmp_path):
        store = ProfileStore(tmp_path)
        assert store.get("nobody") is None

    def test_updates_bump_versions_monotonically(self, tmp_path):
        store = ProfileStore(tmp_path)
        assert store.put(record("alice")).version == 1
        assert store.put(record("alice")).version == 2
        # The caller's claimed version is ignored; the store owns it.
        assert store.put(record("alice", version=77)).version == 3

    def test_survives_reopen(self, tmp_path):
        ProfileStore(tmp_path).put(record("alice", observations=9))
        reopened = ProfileStore(tmp_path)
        assert reopened.get("alice").observations == 9

    def test_get_many_omits_absent(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.put_many([record("a"), record("b")])
        got = store.get_many(["a", "missing", "b"])
        assert set(got) == {"a", "b"}

    def test_user_ids_sorted(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.put_many([record(u) for u in ("zoe", "alice", "mira")])
        assert store.user_ids() == ["alice", "mira", "zoe"]

    def test_trainer_state_travels(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.put(record("alice", trainer_state={"anything": [1, 2, 3]}))
        assert store.get("alice").trainer_state == {"anything": [1, 2, 3]}

    def test_invalid_user_ids_rejected(self, tmp_path):
        store = ProfileStore(tmp_path)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ConfigurationError):
                store.shard_of(bad)

    def test_shard_assignment_stable_across_instances(self, tmp_path):
        a = ProfileStore(tmp_path / "a")
        b = ProfileStore(tmp_path / "b")
        for uid in ("alice", "bob", "user-0012345"):
            assert a.shard_of(uid) == b.shard_of(uid)


class TestCompareAndSwap:
    def test_cas_commits_on_matching_version(self, tmp_path):
        store = ProfileStore(tmp_path)
        v1 = store.put(record("alice"))
        v2 = store.put(record("alice"), expected_version=v1.version)
        assert v2.version == 2

    def test_cas_rejects_stale_writer(self, tmp_path):
        store = ProfileStore(tmp_path)
        v1 = store.put(record("alice"))
        store.put(record("alice"), expected_version=v1.version)
        with pytest.raises(ProfileConflictError):
            store.put(record("alice"), expected_version=v1.version)

    def test_cas_zero_means_must_be_absent(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.put(record("alice"), expected_version=0)
        with pytest.raises(ProfileConflictError):
            store.put(record("alice"), expected_version=0)

    def test_put_many_conflict_commits_nothing(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.put(record("alice"))
        with pytest.raises(ProfileConflictError):
            store.put_many(
                [record("alice"), record("brand-new")],
                expected_versions={"alice": 99, "brand-new": 0},
            )
        # All-or-nothing: the valid record in the batch did not land.
        assert store.get("brand-new") is None

    def test_put_many_duplicate_ids_rejected(self, tmp_path):
        store = ProfileStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.put_many([record("alice"), record("alice")])


class TestDurability:
    def _shard_file(self, store, uid):
        return store.directory / f"shard-{store.shard_of(uid):05d}.pshard"

    def test_population_reads_back_cold(self, tmp_path):
        # A population written in batches spans many shards; a fresh
        # instance with an empty cache finds every record.
        n = 2_000
        ids = [f"user-{i:07d}" for i in range(n)]
        store = ProfileStore(tmp_path)
        for start in range(0, n, 500):
            store.put_many(
                record(uid, observations=i)
                for i, uid in enumerate(ids[start : start + 500], start)
            )
        cold = ProfileStore(tmp_path)
        wanted = ids[::7]
        got = cold.get_many(wanted)
        assert sorted(got) == wanted
        assert all(got[uid].observations == int(uid[5:]) for uid in wanted)
        stats = cold.stats()
        assert stats["records"] == n
        assert stats["populated_shards"] > 1

    def test_garbage_shard_quarantined_as_miss(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.put(record("alice"))
        path = self._shard_file(store, "alice")
        path.write_bytes(b"\x00not a pickle")
        reopened = ProfileStore(tmp_path)
        assert reopened.get("alice") is None
        assert reopened.stats()["torn_loads"] == 1
        assert list(tmp_path.glob("*.pshard.corrupt"))
        assert not path.exists()

    def test_truncated_shard_quarantined_as_miss(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.put(record("alice"))
        path = self._shard_file(store, "alice")
        path.write_bytes(path.read_bytes()[:-7])
        reopened = ProfileStore(tmp_path)
        assert reopened.get("alice") is None
        assert reopened.stats()["torn_loads"] == 1

    def test_quarantined_shard_is_writable_again(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.put(record("alice"))
        self._shard_file(store, "alice").write_bytes(b"torn")
        reopened = ProfileStore(tmp_path)
        assert reopened.get("alice") is None
        assert reopened.put(record("alice")).version == 1
        assert reopened.get("alice") is not None

    def test_wrong_schema_shard_fails_loud(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.put(record("alice"))
        path = self._shard_file(store, "alice")
        blob = pickle.loads(path.read_bytes())
        blob["schema"] = "ptrack-profile-v999"
        path.write_bytes(pickle.dumps(blob))
        with pytest.raises(ConfigurationError):
            ProfileStore(tmp_path).get("alice")

    def test_meta_pins_shard_count(self, tmp_path):
        ProfileStore(tmp_path, n_shards=8)
        assert ProfileStore(tmp_path).n_shards == 8
        with pytest.raises(ConfigurationError):
            ProfileStore(tmp_path, n_shards=16)

    def test_torn_meta_with_shards_refuses(self, tmp_path):
        store = ProfileStore(tmp_path, n_shards=8)
        store.put(record("alice"))
        (tmp_path / "store.meta").write_bytes(b"torn")
        with pytest.raises(ConfigurationError):
            ProfileStore(tmp_path)

    def test_torn_meta_without_shards_rebuilds(self, tmp_path):
        ProfileStore(tmp_path, n_shards=8)
        (tmp_path / "store.meta").write_bytes(b"torn")
        assert ProfileStore(tmp_path, n_shards=4).n_shards == 4

    def test_compact_drops_quarantine_files(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.put(record("alice"))
        self._shard_file(store, "alice").write_bytes(b"torn")
        reopened = ProfileStore(tmp_path)
        reopened.get("alice")  # quarantines
        reopened.put(record("alice"))
        outcome = reopened.compact()
        assert outcome["removed_corrupt"] == 1
        assert outcome["rewritten"] >= 1
        assert not list(tmp_path.glob("*.corrupt"))
        assert reopened.get("alice") is not None


class TestCacheAndTelemetry:
    def test_lru_bounded_and_write_through(self, tmp_path):
        store = ProfileStore(tmp_path, n_shards=64, cache_shards=1)
        users = [f"user-{i}" for i in range(8)]
        distinct = {store.shard_of(u) for u in users}
        assert len(distinct) > 1, "test needs users on different shards"
        store.put_many([record(u) for u in users])
        assert store.stats()["cached_shards"] == 1
        # Eviction is free because every save already hit disk.
        for u in users:
            assert store.get(u) is not None

    def test_counters_flow_to_registry(self, tmp_path):
        reg = MetricsRegistry()
        store = ProfileStore(tmp_path, telemetry=reg)
        store.put(record("alice"))
        store.get("alice")
        store.get("nobody")
        counters = reg.snapshot()["counters"]
        assert counters["profile_store_saves_total"] == 1
        assert counters["profile_store_hits_total"] == 1
        assert counters["profile_store_misses_total"] == 1

    def test_stats_shape(self, tmp_path):
        store = ProfileStore(tmp_path, n_shards=4)
        store.put_many([record(f"u{i}") for i in range(10)])
        stats = store.stats()
        assert stats["records"] == 10
        assert stats["n_shards"] == 4
        assert stats["populated_shards"] <= 4
        assert stats["quarantined_files"] == 0

    def test_invalid_construction_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ProfileStore(tmp_path, n_shards=0)
        with pytest.raises(ConfigurationError):
            ProfileStore(tmp_path, cache_shards=0)
