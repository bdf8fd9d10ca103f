"""Profile-store integration with the serving stack.

The invariants under test:

* **Warm-load oracle** — a fleet served from store-loaded profiles
  credits bit-identically to the same fleet with profiles passed
  directly. Durable profiles are plumbing, never a credit change.
* **Provenance** — a caller-supplied profile always wins over the
  store; a ``user_id`` binds the slot to a store identity whose
  version is the compare-and-swap baseline for write-backs.
* **Staleness fails loud** — restoring a pool snapshot (or a durable
  fleet checkpoint) whose pinned profile versions the store has since
  advanced past raises :class:`~repro.exceptions.ConfigurationError`
  instead of silently serving superseded biomechanics.
* **Exactly-once self-training** — crash-replayed epochs never
  double-feed observations: the crashy durable fleet banks the same
  per-user evidence (and the same credits) as the clean run.
"""

import pickle

import pytest

from repro.exceptions import ConfigurationError, ProfileConflictError
from repro.faults import ShardCrash
from repro.profiles import ProfileRecord, ProfileStore
from repro.serving import SessionPool, serve_fleet, synthesize_workload
from repro.serving.fleet import _ProfileCtx
from repro.types import UserProfile

RATE = 100.0
BATCH = 50

_FLEET = synthesize_workload(3, 15.0, seed=77)
_TRACES = [w.samples for w in _FLEET]
_PROFILES = [w.profile for w in _FLEET]
_USER_IDS = [w.user.name for w in _FLEET]


def _credits(report):
    return [
        (
            s.status,
            [(e.index, e.time) for e in s.steps],
            [(e.time, e.length_m) for e in s.strides],
        )
        for s in report.sessions
    ]


def _seeded_store(tmp_path):
    store = ProfileStore(tmp_path / "profiles")
    store.put_many(
        ProfileRecord(user_id=uid, profile=p)
        for uid, p in zip(_USER_IDS, _PROFILES)
    )
    return store


class TestWarmLoadOracle:
    def test_store_loaded_equals_direct(self, tmp_path):
        direct = serve_fleet(
            _TRACES, RATE, profiles=_PROFILES, workers=1, batch_samples=BATCH
        )
        stored = serve_fleet(
            _TRACES,
            RATE,
            user_ids=_USER_IDS,
            profile_store=_seeded_store(tmp_path),
            workers=1,
            batch_samples=BATCH,
        )
        assert _credits(stored) == _credits(direct)
        assert stored.profiles_loaded == len(_FLEET)
        assert stored.profiles_updated == 0

    def test_explicit_profile_beats_store(self, tmp_path):
        store = _seeded_store(tmp_path)
        # Poison the store: if serving read it, credits would change.
        store.put(
            ProfileRecord(
                user_id=_USER_IDS[0],
                profile=UserProfile(
                    arm_length_m=0.95, leg_length_m=1.1, calibration_k=3.0
                ),
            )
        )
        direct = serve_fleet(
            _TRACES, RATE, profiles=_PROFILES, workers=1, batch_samples=BATCH
        )
        mixed = serve_fleet(
            _TRACES,
            RATE,
            profiles=_PROFILES,
            user_ids=_USER_IDS,
            profile_store=store,
            workers=1,
            batch_samples=BATCH,
        )
        assert _credits(mixed) == _credits(direct)
        assert mixed.profiles_loaded == 0

    def test_missing_records_serve_profile_free(self, tmp_path):
        store = ProfileStore(tmp_path / "empty")
        bare = serve_fleet(
            _TRACES, RATE, workers=1, batch_samples=BATCH
        )
        cold = serve_fleet(
            _TRACES,
            RATE,
            user_ids=_USER_IDS,
            profile_store=store,
            workers=1,
            batch_samples=BATCH,
        )
        assert _credits(cold) == _credits(bare)
        assert cold.profiles_loaded == 0

    def test_telemetry_counts_loads_and_updates(self, tmp_path):
        report = serve_fleet(
            _TRACES,
            RATE,
            user_ids=_USER_IDS,
            profile_store=_seeded_store(tmp_path),
            self_train=True,
            workers=1,
            batch_samples=BATCH,
            telemetry=True,
        )
        counters = report.telemetry["counters"]
        assert counters["serving_fleet_profiles_loaded_total"] == len(_FLEET)
        assert (
            counters["serving_fleet_profiles_updated_total"]
            == report.profiles_updated
            > 0
        )


class TestValidation:
    def test_user_ids_length_mismatch(self, tmp_path):
        with pytest.raises(ConfigurationError):
            serve_fleet(
                _TRACES,
                RATE,
                user_ids=_USER_IDS[:-1],
                profile_store=_seeded_store(tmp_path),
                workers=1,
            )

    def test_store_requires_user_ids(self, tmp_path):
        with pytest.raises(ConfigurationError):
            serve_fleet(
                _TRACES,
                RATE,
                profile_store=_seeded_store(tmp_path),
                workers=1,
            )

    def test_user_ids_require_store(self):
        with pytest.raises(ConfigurationError):
            serve_fleet(_TRACES, RATE, user_ids=_USER_IDS, workers=1)

    def test_self_train_requires_store(self):
        with pytest.raises(ConfigurationError):
            serve_fleet(
                _TRACES,
                RATE,
                profiles=_PROFILES,
                self_train=True,
                workers=1,
            )


class TestPoolProvenance:
    def test_user_id_warm_loads_and_tracks_version(self, tmp_path):
        pool = SessionPool(RATE, profile_store=_seeded_store(tmp_path))
        sid = pool.add_session(user_id=_USER_IDS[0])
        assert pool.session(sid).profile == _PROFILES[0]
        assert pool.profile_meta()[sid] == {
            "user_id": _USER_IDS[0],
            "version": 1,
        }

    def test_caller_profile_wins_but_identity_recorded(self, tmp_path):
        pool = SessionPool(RATE, profile_store=_seeded_store(tmp_path))
        mine = UserProfile(
            arm_length_m=0.6, leg_length_m=0.8, calibration_k=1.5
        )
        sid = pool.add_session(mine, user_id=_USER_IDS[0])
        assert pool.session(sid).profile is mine
        assert pool.profile_meta()[sid]["version"] == 1

    def test_write_back_advances_cas_baseline(self, tmp_path):
        store = _seeded_store(tmp_path)
        pool = SessionPool(RATE, profile_store=store)
        pool.add_session(user_id=_USER_IDS[0])
        committed = pool.write_back_profile(
            ProfileRecord(user_id=_USER_IDS[0], profile=_PROFILES[0])
        )
        assert committed.version == 2
        # The slot advanced with the commit: a second write-back works.
        assert (
            pool.write_back_profile(
                ProfileRecord(user_id=_USER_IDS[0], profile=_PROFILES[0])
            ).version
            == 3
        )

    def test_write_back_loses_cas_race(self, tmp_path):
        store = _seeded_store(tmp_path)
        pool = SessionPool(RATE, profile_store=store)
        pool.add_session(user_id=_USER_IDS[0])
        # An external writer lands first.
        store.put(ProfileRecord(user_id=_USER_IDS[0], profile=_PROFILES[0]))
        with pytest.raises(ProfileConflictError):
            pool.write_back_profile(
                ProfileRecord(user_id=_USER_IDS[0], profile=_PROFILES[0])
            )

    def test_write_back_needs_bound_session(self, tmp_path):
        pool = SessionPool(RATE, profile_store=_seeded_store(tmp_path))
        pool.add_session(_PROFILES[0])  # no user_id
        with pytest.raises(ConfigurationError):
            pool.write_back_profile(
                ProfileRecord(user_id=_USER_IDS[0], profile=_PROFILES[0])
            )

    def test_observation_tap_drains_exactly_once(self, tmp_path):
        pool = SessionPool(RATE, collect_observations=True)
        sid = pool.add_session(_PROFILES[0])
        w = _FLEET[0]
        for off in range(0, w.samples.shape[0], BATCH):
            pool.append([sid], [w.samples[off : off + BATCH]])
        pool.flush()
        first = pool.take_observations()
        assert first and first[sid]
        assert pool.take_observations() == {}


class TestStalenessFailsLoud:
    def test_pool_restore_refuses_advanced_store(self, tmp_path):
        store = _seeded_store(tmp_path)
        pool = SessionPool(RATE, profile_store=store)
        pool.add_session(user_id=_USER_IDS[0])
        blob = pickle.loads(pickle.dumps(pool.snapshot()))
        # An external writer advances the user after the snapshot.
        store.put(ProfileRecord(user_id=_USER_IDS[0], profile=_PROFILES[0]))
        fresh = SessionPool(RATE, profile_store=store)
        with pytest.raises(ConfigurationError, match="stale"):
            fresh.restore(blob)

    def test_pool_restore_without_store_skips_check(self, tmp_path):
        store = _seeded_store(tmp_path)
        pool = SessionPool(RATE, profile_store=store)
        pool.add_session(user_id=_USER_IDS[0])
        blob = pool.snapshot()
        store.put(ProfileRecord(user_id=_USER_IDS[0], profile=_PROFILES[0]))
        # No store attached: nothing to validate against; meta travels.
        revived = SessionPool.from_snapshot(blob)
        assert revived.profile_meta()[0]["version"] == 1

    def test_fleet_restore_refuses_advanced_store(self, tmp_path):
        store = _seeded_store(tmp_path)
        records = store.get_many(_USER_IDS)
        ctx = _ProfileCtx(store, _USER_IDS, records, None)
        checkpoint = {"profiles": ctx.shard_versions(range(len(_USER_IDS)))}
        ctx.check_restored(checkpoint, range(len(_USER_IDS)))  # clean: ok
        store.put(ProfileRecord(user_id=_USER_IDS[1], profile=_PROFILES[1]))
        with pytest.raises(ConfigurationError, match="advanced past"):
            ctx.check_restored(checkpoint, range(len(_USER_IDS)))


class TestSelfTraining:
    def test_write_back_banks_trainer_state(self, tmp_path):
        store = _seeded_store(tmp_path)
        report = serve_fleet(
            _TRACES,
            RATE,
            user_ids=_USER_IDS,
            profile_store=store,
            self_train=True,
            workers=1,
            batch_samples=BATCH,
        )
        assert report.profiles_updated == len(_FLEET)
        for uid in _USER_IDS:
            record = store.get(uid)
            assert record.version == 2
            assert record.observations > 0
            assert record.trainer_state is not None

    def test_write_back_commits_one_batch(self, tmp_path, monkeypatch):
        store = _seeded_store(tmp_path)
        batches = []
        write_backs = []
        put_many = store.put_many

        def spy_put_many(records, expected_versions=None):
            records = list(records)
            batches.append(sorted(r.user_id for r in records))
            return put_many(records, expected_versions=expected_versions)

        write_back = _ProfileCtx.write_back

        def spy_write_back(ctx, user_ids):
            write_backs.append(sorted(user_ids))
            return write_back(ctx, user_ids)

        monkeypatch.setattr(store, "put_many", spy_put_many)
        monkeypatch.setattr(_ProfileCtx, "write_back", spy_write_back)
        report = serve_fleet(
            _TRACES,
            RATE,
            user_ids=_USER_IDS,
            profile_store=store,
            self_train=True,
            workers=1,
            batch_samples=BATCH,
        )
        # One whole-stream epoch in one shard: one write-back, and it
        # commits every user's record in a single put_many.
        assert write_backs == [sorted(_USER_IDS)]
        assert batches == write_backs
        assert report.profiles_updated == len(_FLEET)

    def test_write_back_conflict_commits_nothing(self, tmp_path):
        store = _seeded_store(tmp_path)
        ctx = _ProfileCtx(store, _USER_IDS, store.get_many(_USER_IDS), None)
        # An external writer advances the user written back last; the
        # users sorted before it must not be committed either.
        last = sorted(_USER_IDS)[-1]
        store.put(ProfileRecord(user_id=last, profile=_PROFILES[0]))
        with pytest.raises(ProfileConflictError):
            ctx.write_back(set(_USER_IDS))
        for uid in _USER_IDS:
            record = store.get(uid)
            assert record.version == (2 if uid == last else 1)
            assert record.trainer_state is None
        assert ctx.updated == 0

    def test_observations_accumulate_across_runs(self, tmp_path):
        store = _seeded_store(tmp_path)
        kwargs = dict(
            user_ids=_USER_IDS,
            profile_store=store,
            self_train=True,
            workers=1,
            batch_samples=BATCH,
        )
        serve_fleet(_TRACES, RATE, **kwargs)
        first = {u: store.get(u).observations for u in _USER_IDS}
        serve_fleet(_TRACES, RATE, **kwargs)
        second = {u: store.get(u).observations for u in _USER_IDS}
        # Warm-started trainers: the second run doubles the evidence.
        assert second == {u: 2 * n for u, n in first.items()}

    def test_self_training_never_changes_credits(self, tmp_path):
        plain = serve_fleet(
            _TRACES, RATE, profiles=_PROFILES, workers=1, batch_samples=BATCH
        )
        trained = serve_fleet(
            _TRACES,
            RATE,
            user_ids=_USER_IDS,
            profile_store=_seeded_store(tmp_path),
            self_train=True,
            workers=1,
            batch_samples=BATCH,
        )
        assert _credits(trained) == _credits(plain)

    def test_crashy_durable_feeds_exactly_once(self, tmp_path):
        clean_store = _seeded_store(tmp_path / "clean")
        serve_fleet(
            _TRACES,
            RATE,
            user_ids=_USER_IDS,
            profile_store=clean_store,
            self_train=True,
            workers=1,
            batch_samples=BATCH,
        )
        clean = {u: clean_store.get(u).observations for u in _USER_IDS}

        crashy_store = _seeded_store(tmp_path / "crashy")
        report = serve_fleet(
            _TRACES,
            RATE,
            user_ids=_USER_IDS,
            profile_store=crashy_store,
            self_train=True,
            workers=1,
            batch_samples=BATCH,
            checkpoint_every_s=3.0,
            shard_faults=[ShardCrash(prob=0.4, mode="raise")],
            fault_seed=5,
        )
        assert report.checkpoint_restores > 0, "fault schedule never fired"
        crashy = {u: crashy_store.get(u).observations for u in _USER_IDS}
        # Replayed epochs are recognised and skipped: the evidence per
        # user matches the clean run exactly, as do the credits.
        assert crashy == clean
        direct = serve_fleet(
            _TRACES, RATE, profiles=_PROFILES, workers=1, batch_samples=BATCH
        )
        assert _credits(report) == _credits(direct)

    def test_classic_per_shard_write_back_matches_one_shard(self, tmp_path):
        # One user streams in two sessions that land in different
        # shards, so its record is written back once per shard epoch.
        traces = _TRACES + _TRACES[:1]
        user_ids = _USER_IDS + _USER_IDS[:1]
        kwargs = dict(
            user_ids=user_ids,
            self_train=True,
            workers=1,
            batch_samples=BATCH,
        )
        one = _seeded_store(tmp_path / "one")
        serve_fleet(traces, RATE, profile_store=one, **kwargs)
        many = _seeded_store(tmp_path / "many")
        report = serve_fleet(
            traces, RATE, profile_store=many, sessions_per_shard=1, **kwargs
        )
        assert report.profiles_updated == len(traces)
        for uid in _USER_IDS:
            want, got = one.get(uid), many.get(uid)
            assert got.observations == want.observations > 0
            assert got.profile == want.profile
            assert got.trainer_state == want.trainer_state

    def test_fallback_before_any_feed_keeps_evidence(self, tmp_path):
        # Every shard dies twice in its first epoch, so it falls back
        # to bisection before feeding anything; the healed shards'
        # evidence must still reach the trainers, exactly once.
        fleet = synthesize_workload(4, 12.0, seed=88)
        traces = [w.samples for w in fleet]
        user_ids = [w.user.name for w in fleet]

        def seeded(path):
            store = ProfileStore(path)
            store.put_many(
                ProfileRecord(user_id=w.user.name, profile=w.profile)
                for w in fleet
            )
            return store

        kwargs = dict(
            user_ids=user_ids,
            self_train=True,
            workers=1,
            batch_samples=BATCH,
        )
        clean_store = seeded(tmp_path / "clean")
        clean = serve_fleet(traces, RATE, profile_store=clean_store, **kwargs)
        crashy_store = seeded(tmp_path / "crashy")
        crashy = serve_fleet(
            traces,
            RATE,
            profile_store=crashy_store,
            checkpoint_every_s=4.0,
            shard_faults=[ShardCrash(prob=1.0, retry_prob=1.0)],
            **kwargs,
        )
        assert crashy.shard_retries > 0, "fallback never ran"
        assert crashy.checkpoint_restores == 0
        assert crashy.profiles_updated == clean.profiles_updated == 4
        for uid in user_ids:
            want, got = clean_store.get(uid), crashy_store.get(uid)
            assert got.observations == want.observations > 0
            assert got.profile == want.profile
        assert _credits(crashy) == _credits(clean)
