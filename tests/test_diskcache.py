"""Disk-cache hardening: checksummed entries, quarantine, non-fatal store.

Satellite of ISSUE 7: ``store`` must never let a pickling failure escape
(the original bug: only ``OSError`` was caught, so an unpicklable
``RunResult`` variant crashed the whole sweep), and ``load`` must treat
any byte-level corruption as a quarantined miss, never an exception.
"""

from __future__ import annotations

import os
import pickle
import threading

import pytest

from repro.harness import diskcache


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path))
    return tmp_path


def _entry_files(cache):
    return sorted(cache.glob("*.pickle"))


class TestRoundTrip:
    def test_store_then_load(self, cache):
        key = ("bench", "fop", 2, "htm")
        diskcache.store(key, {"throughput": 1.25, "aborts": [1, 2, 3]})
        assert diskcache.load(key) == {"throughput": 1.25,
                                       "aborts": [1, 2, 3]}

    def test_miss_returns_none(self, cache):
        assert diskcache.load(("never", "stored")) is None

    def test_keys_do_not_collide(self, cache):
        diskcache.store(("a",), 1)
        diskcache.store(("b",), 2)
        assert diskcache.load(("a",)) == 1
        assert diskcache.load(("b",)) == 2

    def test_entry_is_checksummed_on_disk(self, cache):
        diskcache.store(("k",), "value")
        (entry,) = _entry_files(cache)
        data = entry.read_bytes()
        assert data.startswith(diskcache._MAGIC)
        payload = data[len(diskcache._MAGIC) + diskcache._DIGEST_SIZE:]
        assert pickle.loads(payload) == "value"


class TestStoreNeverRaises:
    def test_unpicklable_result_is_swallowed(self, cache):
        """Regression: a PicklingError must not escape ``store``."""
        diskcache.store(("bad",), threading.Lock())  # must not raise
        assert diskcache.load(("bad",)) is None

    def test_unpicklable_result_leaves_no_litter(self, cache):
        diskcache.store(("bad",), lambda: None)  # local lambda: unpicklable
        assert list(cache.glob("*.tmp")) == []
        assert _entry_files(cache) == []

    def test_unwritable_directory_is_swallowed(self, cache, monkeypatch):
        blocker = cache / "not-a-dir"
        blocker.write_text("a file where the cache dir should be")
        monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(blocker / "cache"))
        diskcache.store(("k",), 1)  # mkdir fails (OSError): swallowed
        assert diskcache.load(("k",)) is None

    def test_good_store_after_bad_store(self, cache):
        diskcache.store(("bad",), threading.Lock())
        diskcache.store(("good",), 42)
        assert diskcache.load(("good",)) == 42


class TestQuarantine:
    def _stored_entry(self, cache, key=("victim",), value="payload"):
        diskcache.store(key, value)
        (entry,) = _entry_files(cache)
        return key, entry

    def test_bitflip_is_quarantined(self, cache):
        key, entry = self._stored_entry(cache)
        data = bytearray(entry.read_bytes())
        data[-1] ^= 0xFF
        entry.write_bytes(bytes(data))
        before = diskcache.quarantined_entries
        assert diskcache.load(key) is None
        assert diskcache.quarantined_entries == before + 1
        assert not entry.exists()
        assert entry.with_suffix(".corrupt").exists()

    def test_quarantined_entry_is_never_reread(self, cache):
        key, entry = self._stored_entry(cache)
        entry.write_bytes(diskcache._MAGIC + b"\0" * 40)
        assert diskcache.load(key) is None
        # second load is a plain miss: the file moved aside
        before = diskcache.quarantined_entries
        assert diskcache.load(key) is None
        assert diskcache.quarantined_entries == before

    def test_truncated_entry(self, cache):
        key, entry = self._stored_entry(cache)
        entry.write_bytes(entry.read_bytes()[:len(diskcache._MAGIC) + 10])
        assert diskcache.load(key) is None
        assert entry.with_suffix(".corrupt").exists()

    def test_empty_entry(self, cache):
        key, entry = self._stored_entry(cache)
        entry.write_bytes(b"")
        assert diskcache.load(key) is None
        assert entry.with_suffix(".corrupt").exists()

    def test_legacy_unchecksummed_entry(self, cache):
        """Pre-magic raw-pickle files are quarantined on sight."""
        key, entry = self._stored_entry(cache)
        entry.write_bytes(pickle.dumps("legacy raw pickle"))
        assert diskcache.load(key) is None
        assert entry.with_suffix(".corrupt").exists()

    def test_checksum_holds_but_payload_unloadable(self, cache):
        """A valid checksum over garbage pickle bytes still quarantines."""
        key, entry = self._stored_entry(cache)
        payload = b"not a pickle at all"
        import hashlib
        entry.write_bytes(diskcache._MAGIC
                          + hashlib.sha256(payload).digest() + payload)
        before = diskcache.quarantined_entries
        assert diskcache.load(key) is None
        assert diskcache.quarantined_entries == before + 1

    def test_overwrite_heals_quarantined_key(self, cache):
        key, entry = self._stored_entry(cache)
        entry.write_bytes(b"junk")
        assert diskcache.load(key) is None
        diskcache.store(key, "healed")
        assert diskcache.load(key) == "healed"


class TestAtomicPublish:
    """ISSUE 9 satellite: SIGKILL-style truncated writes are impossible
    to observe.  ``store`` publishes with temp-file + fsync +
    ``os.replace``, so the final path only ever holds a complete record
    — the checksum is a second line of defence, not the first."""

    def test_fsync_happens_before_publish(self, cache, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append("fsync"), real_fsync(fd)))
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: (calls.append("replace"),
                              real_replace(src, dst)))
        diskcache.store(("k",), "value")
        assert calls == ["fsync", "replace"]

    def test_record_is_complete_at_publish_time(self, cache, monkeypatch):
        """At the instant of the rename — the only moment an entry can
        appear at its final path — the temp file already holds the full
        verified record.  A SIGKILL one instruction earlier leaves *no*
        entry; one instruction later leaves the whole one."""
        captured = {}
        real_replace = os.replace

        def capture_then_replace(src, dst):
            captured["bytes"] = open(src, "rb").read()
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", capture_then_replace)
        diskcache.store(("k",), {"payload": list(range(64))})
        assert diskcache._verified_payload(captured["bytes"]) is not None
        assert pickle.loads(
            diskcache._verified_payload(captured["bytes"])
        ) == {"payload": list(range(64))}

    def test_kill_before_publish_leaves_no_entry(self, cache, monkeypatch):
        """Simulated SIGKILL between write and rename: the final path
        never comes into existence, so a reader sees a clean miss — not
        a truncated entry, not a quarantine."""
        monkeypatch.setattr(os, "replace",
                            lambda src, dst: None)  # the rename never ran
        before = diskcache.quarantined_entries
        diskcache.store(("k",), "value")
        assert _entry_files(cache) == []
        assert diskcache.load(("k",)) is None
        assert diskcache.quarantined_entries == before  # miss, not corrupt

    def test_kill_during_write_leaves_no_entry(self, cache, monkeypatch):
        """Simulated death mid-write (the fsync never completes): no
        entry, and no temp litter either on the exception path."""
        def dying_fsync(fd):
            raise OSError("simulated power loss")

        monkeypatch.setattr(os, "fsync", dying_fsync)
        diskcache.store(("k",), "value")
        assert _entry_files(cache) == []
        assert list(cache.glob("*.tmp")) == []
        assert diskcache.load(("k",)) is None

    def test_no_write_prefix_is_ever_observable(self, cache, monkeypatch):
        """The adversarial sweep: for *every* prefix of the record a
        dying writer could have flushed, the final path stays absent —
        torn states live only under temp names that ``load`` never
        reads."""
        real_replace = os.replace
        record = {}
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: record.update(
                bytes=open(src, "rb").read()) or real_replace(src, dst))
        diskcache.store(("k",), "value")
        monkeypatch.setattr(os, "replace", real_replace)
        full = record["bytes"]
        key2 = ("other-key",)
        final = diskcache._entry_path(key2)
        for cut in range(len(full)):  # every possible kill point
            tmp = final.parent / f"dead-writer-{cut}.tmp"
            tmp.write_bytes(full[:cut])
            assert not final.exists()
            assert diskcache.load(key2) is None

    def test_concurrent_overwrite_is_all_or_nothing(self, cache):
        """Two writers racing the same key: a reader sees one of the two
        complete values, never an interleaving."""
        key = ("contested",)
        diskcache.store(key, "first" * 1000)
        diskcache.store(key, "second" * 1000)
        assert diskcache.load(key) in ("first" * 1000, "second" * 1000)


class TestHotCache:
    """ISSUE 9 satellite: the in-memory LRU layer in front of ``load``."""

    def test_miss_then_hot_hit(self, cache):
        hot = diskcache.HotCache(capacity=4)
        result, source = hot.get(("k",), disk=False)
        assert (result, source) == (None, None)
        hot.put(("k",), "value")
        assert hot.get(("k",), disk=False) == ("value", "hot")
        assert hot.counters()["hot_hits"] == 1
        assert hot.counters()["misses"] == 1

    def test_disk_hit_promotes(self, cache):
        diskcache.store(("k",), "durable")
        hot = diskcache.HotCache(capacity=4)
        assert hot.get(("k",)) == ("durable", "disk")
        # promoted: the second lookup never touches the disk
        assert hot.get(("k",)) == ("durable", "hot")
        counters = hot.counters()
        assert counters["disk_hits"] == 1
        assert counters["hot_hits"] == 1

    def test_disk_false_skips_the_disk_layer(self, cache):
        diskcache.store(("k",), "durable")
        hot = diskcache.HotCache(capacity=4)
        assert hot.get(("k",), disk=False) == (None, None)

    def test_put_disk_true_persists_atomically(self, cache):
        hot = diskcache.HotCache(capacity=4)
        hot.put(("k",), "both layers", disk=True)
        assert diskcache.load(("k",)) == "both layers"
        assert diskcache.HotCache(capacity=4).get(("k",)) == \
            ("both layers", "disk")

    def test_lru_evicts_least_recently_used(self, cache):
        hot = diskcache.HotCache(capacity=2)
        hot.put(("a",), 1)
        hot.put(("b",), 2)
        hot.get(("a",), disk=False)   # refresh a: b is now the LRU
        hot.put(("c",), 3)            # evicts b
        assert hot.get(("a",), disk=False) == (1, "hot")
        assert hot.get(("b",), disk=False) == (None, None)
        assert hot.get(("c",), disk=False) == (3, "hot")
        assert len(hot) == 2

    def test_capacity_clamps_to_one(self, cache):
        hot = diskcache.HotCache(capacity=0)
        assert hot.capacity == 1
        hot.put(("a",), 1)
        hot.put(("b",), 2)
        assert len(hot) == 1

    def test_capacity_default_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOT_CACHE_SIZE", "7")
        assert diskcache.HotCache().capacity == 7
        monkeypatch.setenv("REPRO_HOT_CACHE_SIZE", "not-a-number")
        assert diskcache.HotCache().capacity == 256
        monkeypatch.delenv("REPRO_HOT_CACHE_SIZE")
        assert diskcache.HotCache().capacity == 256

    def test_clear_resets_entries_and_counters(self, cache):
        hot = diskcache.HotCache(capacity=4)
        hot.put(("a",), 1)
        hot.get(("a",), disk=False)
        hot.get(("missing",), disk=False)
        hot.clear()
        assert len(hot) == 0
        counters = hot.counters()
        assert (counters["hot_hits"], counters["misses"]) == (0, 0)

    def test_render_cache_report(self, cache):
        from repro.harness.report import render_cache

        hot = diskcache.HotCache(capacity=8)
        hot.put(("a",), 1)
        hot.get(("a",), disk=False)
        hot.get(("a",), disk=False)
        hot.get(("miss",), disk=False)
        text = render_cache(hot.counters())
        assert "result cache" in text
        for column in ("hot", "disk", "miss", "quar", "hit%"):
            assert column in text
        assert "66.67" in text  # 2 hits / 3 lookups


class TestEnabledFlag:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        assert diskcache.enabled(True) is True
        assert diskcache.enabled(False) is False
        assert diskcache.enabled() is False
        monkeypatch.setenv("REPRO_DISK_CACHE", "1")
        assert diskcache.enabled() is True
        assert diskcache.enabled(False) is False
