"""Tests for the shard wire format (`repro.cluster.wire`).

The wire contract is the distribution boundary of the sharded serving
tier: every payload must round-trip *bit-exactly* (scores, tie sums,
g-images, region rows), frames must be versioned and validated, and
worker exceptions must survive the crossing with enough context to debug.
"""

from __future__ import annotations

import hashlib
import pickle
import struct

import numpy as np
import pytest

from repro import obs
from repro.cluster import wire
from repro.cluster.backends import ShardReply, ShardSpec, ShardUpdate
from repro.geometry.polytope import Polytope
from repro.scoring import LinearScoring, polynomial_scoring


def region(d: int = 3) -> Polytope:
    rng = np.random.default_rng(5)
    return Polytope.from_unit_box(d).with_constraints(rng.normal(size=(4, d)))


class TestPolytopeBytes:
    def test_round_trip_is_bit_exact(self):
        p = region()
        q = Polytope.from_bytes(p.to_bytes())
        assert q.A.tobytes() == p.A.tobytes()
        assert q.b.tobytes() == p.b.tobytes()

    def test_malformed_payloads_rejected(self):
        with pytest.raises(ValueError, match="payload"):
            Polytope.from_bytes(region().to_bytes()[:-8])
        with pytest.raises(ValueError, match="malformed"):
            Polytope.from_bytes(struct.pack("<qq", -1, 2))


class TestFraming:
    def test_frame_round_trip(self):
        msg, reader = wire.decode_frame(
            wire.encode_frame(
                wire.MSG_TOPK_BATCH, wire.encode_topk_batch([(np.ones(3), 5)])
            )
        )
        assert msg == wire.MSG_TOPK_BATCH
        ((weights, k),) = wire.decode_topk_batch(reader)
        assert k == 5 and np.array_equal(weights, np.ones(3))

    def test_bad_magic_rejected(self):
        frame = b"NOPE" + wire.encode_frame(wire.MSG_READY)[4:]
        with pytest.raises(wire.WireError, match="magic"):
            wire.decode_frame(frame)

    def test_version_mismatch_rejected(self):
        frame = bytearray(wire.encode_frame(wire.MSG_READY))
        struct.pack_into("<H", frame, 4, wire.WIRE_VERSION + 1)
        with pytest.raises(wire.WireError, match="version"):
            wire.decode_frame(bytes(frame))

    def test_previous_version_rejected(self):
        """A version-5 peer (whose update frame carried a fifth field, an
        LP count, and whose build config named an invalidation policy) is
        rejected like any other wrong version, before its payload is
        read."""
        v5_update = struct.pack("<qqqqq", 12, 3, 9, 2, 4)
        frame = bytearray(wire.encode_frame(wire.MSG_REPLY_UPDATE, v5_update))
        struct.pack_into("<H", frame, 4, 5)
        with pytest.raises(wire.WireError, match="unsupported wire version 5"):
            wire.decode_frame(bytes(frame))

    def test_unknown_message_type_rejected(self):
        frame = bytearray(wire.encode_frame(wire.MSG_READY))
        struct.pack_into("<H", frame, 6, 999)
        with pytest.raises(wire.WireError, match="unknown message"):
            wire.decode_frame(bytes(frame))

    def test_trailing_garbage_rejected(self):
        frame = wire.encode_frame(wire.MSG_DELETE, wire.encode_delete(3) + b"x")
        _msg, reader = wire.decode_frame(frame)
        with pytest.raises(wire.WireError, match="trailing"):
            wire.decode_delete(reader)


class TestPayloads:
    def test_reply_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(7)
        reply = ShardReply(
            ids=(4, 0, 9),
            scores=(0.3 + 1e-16, 0.2, 0.1),
            tie_sums=(1.25, np.pi, 0.75),
            points_g=rng.random((3, 3)),
            region=region(),
            source="computed",
            pages_read=17,
            cache_entries=6,
        )
        (out,) = wire.decode_batch_reply(
            wire.decode_frame(
                wire.encode_frame(
                    wire.MSG_REPLY_BATCH, wire.encode_batch_reply([reply])
                )
            )[1]
        )
        assert out.ids == reply.ids
        assert out.scores == reply.scores  # exact float equality
        assert out.tie_sums == reply.tie_sums
        assert out.points_g.tobytes() == reply.points_g.tobytes()
        assert out.region.A.tobytes() == reply.region.A.tobytes()
        assert (out.source, out.pages_read) == ("computed", 17)
        assert out.cache_entries == 6

    def test_reply_without_region_round_trip(self):
        """An absent region (a shard whose full cache deferred it)
        crosses as an empty region payload and comes back ``None``, next
        to a reply that carries one."""
        rng = np.random.default_rng(9)
        replies = [
            ShardReply(
                ids=(2, 5),
                scores=(0.5, 0.25),
                tie_sums=(1.0, 0.5),
                points_g=rng.random((2, 3)),
                region=r,
                source="computed",
                pages_read=4,
                cache_entries=16,
            )
            for r in (None, region())
        ]
        payload = wire.encode_batch_reply(replies)
        first = wire.encode_batch_reply(replies[:1])
        # count, three arrays, then the region's 4-byte length: zero.
        assert b"\x00\x00\x00\x00\x08\x00\x00\x00computed" in first
        out = wire.decode_batch_reply(
            wire.decode_frame(wire.encode_frame(wire.MSG_REPLY_BATCH, payload))[1]
        )
        assert out[0].region is None
        assert out[1].region.A.tobytes() == replies[1].region.A.tobytes()
        assert out[1].region.b.tobytes() == replies[1].region.b.tobytes()
        for got, want in zip(out, replies):
            assert (got.ids, got.scores, got.tie_sums) == (want.ids, want.scores, want.tie_sums)
            assert got.points_g.tobytes() == want.points_g.tobytes()
            assert (got.source, got.pages_read, got.cache_entries) == ("computed", 4, 16)

    def test_batch_reply_round_trip(self):
        rng = np.random.default_rng(8)
        replies = [
            ShardReply(
                ids=(i,),
                scores=(rng.random(),),
                tie_sums=(rng.random(),),
                points_g=rng.random((1, 2)),
                region=Polytope.from_unit_box(2),
                source="cache",
                pages_read=0,
                cache_entries=1,
            )
            for i in range(3)
        ]
        out = wire.decode_batch_reply(
            wire.decode_frame(
                wire.encode_frame(
                    wire.MSG_REPLY_BATCH, wire.encode_batch_reply(replies)
                )
            )[1]
        )
        assert [r.ids for r in out] == [(0,), (1,), (2,)]
        assert [r.scores for r in out] == [r.scores for r in replies]

    def test_topk_batch_round_trip(self):
        reqs = [(np.array([0.1, 0.9]), 3), (np.array([0.5, 0.5]), 7)]
        out = wire.decode_topk_batch(
            wire.decode_frame(
                wire.encode_frame(
                    wire.MSG_TOPK_BATCH, wire.encode_topk_batch(reqs)
                )
            )[1]
        )
        assert [(w.tolist(), k) for w, k in out] == [
            ([0.1, 0.9], 3),
            ([0.5, 0.5], 7),
        ]

    def test_update_and_stats_round_trip(self):
        update = ShardUpdate(
            rid=12, evicted=3, screened=9, cache_entries=4,
        )
        # v6: four int64 fields, no LP count.
        assert len(wire.encode_update(update)) == 4 * 8
        out = wire.decode_update(
            wire.decode_frame(
                wire.encode_frame(
                    wire.MSG_REPLY_UPDATE, wire.encode_update(update)
                )
            )[1]
        )
        assert out == update
        stats = {"page_reads": 42, "cache_entries": 7, "live_records": 100}
        assert (
            wire.decode_stats(
                wire.decode_frame(
                    wire.encode_frame(
                        wire.MSG_REPLY_STATS, wire.encode_stats(stats)
                    )
                )[1]
            )
            == stats
        )

    def test_build_spec_round_trip(self):
        rng = np.random.default_rng(9)
        spec = ShardSpec(
            shard=2,
            name="data[shard2]",
            points=rng.random((20, 4)),
            method="fp",
            cache_capacity=32,
            page_sleep_ms=0.25,
            scorer=LinearScoring(4),
        )
        out = wire.decode_build(
            wire.decode_frame(
                wire.encode_frame(wire.MSG_BUILD, wire.encode_build(spec))
            )[1]
        )
        assert (out.shard, out.name, out.method) == (2, "data[shard2]", "fp")
        assert out.cache_capacity == 32
        assert out.page_sleep_ms == 0.25
        assert out.points.tobytes() == spec.points.tobytes()
        assert isinstance(out.scorer, LinearScoring) and out.scorer.d == 4

    def test_unpicklable_scorer_fails_fast(self):
        # polynomial_scoring builds its components from local lambdas.
        spec = ShardSpec(
            shard=0,
            name="s",
            points=np.zeros((2, 2)),
            method="fp",
            cache_capacity=4,
            page_sleep_ms=0.0,
            scorer=polynomial_scoring((2.0, 1.0)),
        )
        with pytest.raises(ValueError, match="not picklable"):
            wire.encode_build(spec)

    def test_error_round_trip_carries_context(self):
        try:
            raise KeyError("rid 99 is not live")
        except KeyError as exc:
            failure = wire.decode_error(
                wire.decode_frame(
                    wire.encode_frame(
                        wire.MSG_REPLY_ERROR, wire.encode_error(exc)
                    )
                )[1]
            )
        assert failure.exc_type == "KeyError"
        assert "rid 99" in failure.worker_message
        assert "KeyError" in failure.worker_traceback
        assert "shard worker raised KeyError" in str(failure)


class TestDecodeErrorPaths:
    """Malformed payloads must fail loudly as WireError, never as numpy
    shape errors or silent truncation."""

    def test_truncated_header_rejected(self):
        whole = wire.encode_frame(wire.MSG_READY)
        for cut in range(len(whole)):
            with pytest.raises(wire.WireError, match="truncated"):
                wire.decode_frame(whole[:cut])

    def test_truncated_array_payload_rejected(self):
        payload = wire.encode_insert(np.arange(6, dtype=np.float64))
        frame = wire.encode_frame(wire.MSG_INSERT, payload)
        # Cut inside the array body (after the dtype/ndim/shape preamble).
        cut = frame[: len(frame) - len(payload) + 2 + 8 + 8 * 3]
        msg, reader = wire.decode_frame(cut)
        with pytest.raises(wire.WireError, match="truncated"):
            wire.decode_insert(reader)

    def test_payload_length_mismatch_rejected(self):
        # Extra bytes after a structurally-complete payload: the reader's
        # done() check must refuse, not silently ignore them.
        payload = wire.encode_delete(7) + b"\x00"
        msg, reader = wire.decode_frame(
            wire.encode_frame(wire.MSG_DELETE, payload)
        )
        with pytest.raises(wire.WireError, match="trailing"):
            wire.decode_delete(reader)

    def test_unknown_dtype_tag_rejected(self):
        payload = bytearray(wire.encode_insert(np.ones(3)))
        payload[0] = 99  # dtype tag byte of the embedded array
        msg, reader = wire.decode_frame(
            wire.encode_frame(wire.MSG_INSERT, bytes(payload))
        )
        with pytest.raises(wire.WireError, match="dtype"):
            wire.decode_insert(reader)

    def test_negative_array_dimension_rejected(self):
        payload = bytearray(wire.encode_insert(np.ones(3)))
        struct.pack_into("<q", payload, 2, -3)  # first shape slot
        msg, reader = wire.decode_frame(
            wire.encode_frame(wire.MSG_INSERT, bytes(payload))
        )
        with pytest.raises(wire.WireError, match="negative"):
            wire.decode_insert(reader)

    def test_truncated_batch_reply_rejected(self):
        reply = ShardReply(
            ids=(0,),
            scores=(1.0,),
            tie_sums=(1.5,),
            points_g=np.ones((1, 3)),
            region=region(),
            source="computed",
            pages_read=1,
            cache_entries=0,
        )
        payload = wire.encode_batch_reply([reply, reply])
        msg, reader = wire.decode_frame(
            wire.encode_frame(wire.MSG_REPLY_BATCH, payload[: len(payload) // 2])
        )
        with pytest.raises(wire.WireError, match="truncated"):
            wire.decode_batch_reply(reader)


class TestFrameIdentity:
    """Golden digest of one frame of every message type.

    The round-trip tests above pass for any layout both sides agree on;
    this digest fails when the bytes themselves change, so a layout
    change cannot ship without a ``WIRE_VERSION`` bump. The inputs are
    exact binary fractions, so no float rounding enters the bytes.
    """

    GOLDEN = (6, "2315afc23c6581cc393b476b6ae37c7151668117c4aa7dec716300e183aef9c0")

    def frames(self) -> dict[int, bytes]:
        rows = np.arange(12, dtype=np.float64).reshape(4, 3) / 8.0
        box = Polytope.from_unit_box(2)
        region = Polytope(np.vstack([box.A, [[-0.5, 0.25]]]), np.append(box.b, 0.0))
        spec = ShardSpec(
            shard=1, name="fixed[shard1]", points=rows, method="fp",
            cache_capacity=16, page_sleep_ms=0.5,
            scorer=LinearScoring(3),
        )
        reply = ShardReply(
            ids=(3, 1), scores=(0.75, 0.5), tie_sums=(1.5, 1.25),
            points_g=rows[:2, :2], region=region, source="computed",
            pages_read=5, cache_entries=2,
        )
        deferred = ShardReply(
            ids=(2,), scores=(0.25,), tie_sums=(0.75,),
            points_g=rows[2:3, :2], region=None, source="computed",
            pages_read=3, cache_entries=16,
        )
        update = ShardUpdate(
            rid=4, evicted=2, screened=3, cache_entries=6,
        )
        span = obs.SpanRecord("t-1", "s-2", "s-1", "shard.topk_batch", 16.0, 2.5, 7, 9, {"k": 3})
        # The scorer crosses as pickle's bytes, not this format's: they
        # may differ across Python/numpy versions, so the digest stops
        # before that last field (its 4-byte length, then the pickle).
        build = wire.encode_frame(wire.MSG_BUILD, wire.encode_build(spec))
        scorer = pickle.dumps(spec.scorer)
        assert build.endswith(scorer)
        return {
            wire.MSG_BUILD: build[: -4 - len(scorer)],
            wire.MSG_TOPK_BATCH: wire.encode_frame(
                wire.MSG_TOPK_BATCH,
                wire.encode_topk_batch([(rows[0] + 0.5, 3), (rows[1], 5)]),
                trace=("t-1", "s-1"),
            ),
            wire.MSG_INSERT: wire.encode_frame(wire.MSG_INSERT, wire.encode_insert(rows[2])),
            wire.MSG_DELETE: wire.encode_frame(wire.MSG_DELETE, wire.encode_delete(7)),
            wire.MSG_REPLY_BATCH: wire.encode_frame(
                wire.MSG_REPLY_BATCH, wire.encode_batch_reply([reply, deferred])
            ),
            wire.MSG_REPLY_UPDATE: wire.encode_frame(
                wire.MSG_REPLY_UPDATE, wire.encode_update(update)
            ),
            wire.MSG_REPLY_STATS: wire.encode_frame(
                wire.MSG_REPLY_STATS,
                wire.encode_stats({"page_reads": 42, "live_records": 100}),
            ),
            wire.MSG_REPLY_TRACE: wire.encode_frame(
                wire.MSG_REPLY_TRACE,
                wire.encode_trace_payload(
                    {"spans": [span.to_dict()], "started": 1, "finished": 1, "dropped": 0}
                ),
            ),
            wire.MSG_REPLY_ERROR: wire.encode_frame(
                wire.MSG_REPLY_ERROR,
                wire.encode_error(KeyError("rid 9 is not live")),
            ),
            **{
                msg: wire.encode_frame(msg)
                for msg in (wire.MSG_READY, wire.MSG_STATS, wire.MSG_SHUTDOWN, wire.MSG_TRACE)
            },
        }

    def test_frame_digest(self):
        frames = self.frames()
        assert sorted(frames) == sorted(wire.MSG_NAMES)
        digest = hashlib.sha256()
        for msg in sorted(frames):
            digest.update(struct.pack("<Q", len(frames[msg])) + frames[msg])
        got = (wire.WIRE_VERSION, digest.hexdigest())
        assert got == self.GOLDEN, (
            f"a frame-layout change must bump WIRE_VERSION, then update "
            f"this digest to {got}"
        )
