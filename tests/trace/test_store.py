"""Tests for the content-addressed workload store (repro.trace.store)."""

import hashlib
import json

import pytest

from repro.trace.store import (
    TraceStore,
    canonical_trace,
    default_cache_root,
    default_store,
    trace_digest,
)

ROWS = ((0, 0.0, 4, 30.0), (1, 5.5, 8, 12.25), (2, 9.0, 16, 3600.0))


class TestTraceDigest:
    def test_deterministic_and_content_sensitive(self):
        assert trace_digest(ROWS) == trace_digest(list(list(r) for r in ROWS))
        assert trace_digest(ROWS) != trace_digest(ROWS[:2])
        assert len(trace_digest(ROWS)) == 64

    def test_type_normalisation(self):
        # int-typed floats and float-typed ints hash like their canonical form
        messy = ((0, 0, 4.0, 30), (1, 5.5, 8, 12.25), (2, 9, 16.0, 3600))
        assert trace_digest(messy) == trace_digest(ROWS)
        assert canonical_trace(messy) == canonical_trace(ROWS)
        assert all(
            isinstance(j, int) and isinstance(a, float) and isinstance(s, int)
            and isinstance(r, float)
            for j, a, s, r in canonical_trace(messy)
        )


class TestTraceStore:
    def test_put_get_round_trip(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        digest = store.put(ROWS)
        assert digest == trace_digest(ROWS)
        assert digest in store
        assert store.get(digest) == canonical_trace(ROWS)

    def test_file_bytes_hash_to_the_digest(self, tmp_path):
        """The stored bytes are the canonical JSON the digest hashes, and
        the memo put leaves behind equals a fresh read of the file."""
        from repro.trace import store as store_mod

        store = TraceStore(tmp_path / "traces")
        messy = ((0, 0, 4.0, 30), (1, 5.5, 8, 12.25, 3), (2, 9, 16.0, 3600, -1, 2))
        digest = store.put(messy)
        raw = store.path_for(digest).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == digest == trace_digest(messy)
        memoised = store.get(digest)
        store_mod._MEMO.clear()
        assert store.get(digest) == memoised == canonical_trace(messy)

    def test_put_is_idempotent(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        d1 = store.put(ROWS)
        mtime = store.path_for(d1).stat().st_mtime_ns
        d2 = store.put(ROWS)
        assert d1 == d2
        assert store.path_for(d1).stat().st_mtime_ns == mtime  # not rewritten
        assert len(store) == 1

    def test_missing_digest_raises_keyerror(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        with pytest.raises(KeyError, match="not in store"):
            store.get("0" * 64)

    def test_corruption_detected(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        digest = store.put(ROWS)
        store.path_for(digest).write_text(json.dumps([[9, 9.0, 9, 9.0]]))
        # bust the in-memory memo by using a fresh root string via new instance
        from repro.trace import store as store_mod

        store_mod._MEMO.clear()
        with pytest.raises(ValueError, match="corruption"):
            TraceStore(tmp_path / "traces").get(digest)

    def test_memo_serves_repeat_reads(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        digest = store.put(ROWS)
        assert store.get(digest) == canonical_trace(ROWS)
        store.path_for(digest).unlink()  # memo still has it
        assert store.get(digest) == canonical_trace(ROWS)

    def test_digests_len_clear(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        d1 = store.put(ROWS)
        d2 = store.put(ROWS[:1])
        assert sorted(store.digests()) == sorted((d1, d2))
        assert store.size_bytes() > 0
        assert store.clear() == 2
        assert len(store) == 0 and store.size_bytes() == 0

    def test_default_store_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_root() == tmp_path / "env-cache"
        assert default_store().root == tmp_path / "env-cache" / "traces"


class TestTenancyColumns:
    def test_trailing_defaults_collapse(self):
        """Rows with sentinel tenancy canonicalise to the historical
        4-column form, so tenant-free traces keep their digests."""
        assert canonical_trace([(0, 0.0, 4, 10.0, -1, 0)]) == ((0, 0.0, 4, 10.0),)
        assert trace_digest([(0, 0.0, 4, 10.0, -1, 0)]) == trace_digest(
            [(0, 0.0, 4, 10.0)]
        )

    def test_user_only_and_full_width_forms(self):
        assert canonical_trace([(0, 0.0, 4, 10.0, 3, 0)]) == ((0, 0.0, 4, 10.0, 3),)
        # A non-zero class forces the user column even at its sentinel.
        assert canonical_trace([(0, 0.0, 4, 10.0, -1, 2)]) == ((0, 0.0, 4, 10.0, -1, 2),)

    def test_tenancy_distinguishes_digests(self):
        assert trace_digest([(0, 0.0, 4, 10.0, 3)]) != trace_digest([(0, 0.0, 4, 10.0)])

    def test_store_round_trips_tenancy(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        rows = [(0, 0.0, 4, 10.0, 3), (1, 1.0, 2, 5.0, -1, 2), (2, 2.0, 1, 1.0)]
        digest = store.put(rows)
        assert store.get(digest) == canonical_trace(rows)

    def test_four_column_digest_pin(self):
        """The pre-tenancy content address, pinned: cache keys of every
        artifact written before this column existed must not move."""
        assert trace_digest([(0, 0.0, 4, 10.0)])[:12] == "83eb952851e7"
