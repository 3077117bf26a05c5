"""Integrity tests for the spill-segment format and the run manifest.

Property-based (hypothesis) round-trips for the record codec and the
manifest serialisation, plus directed tests for every way a segment can
be damaged: a torn tail (accepted by recovery, truncated), a bit flip
mid-file (refused — that is corruption, not a crash signature), and a
foreign file without the magic.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block_analysis import BlockReport
from repro.errors import CorruptSegmentError, ResumeMismatchError
from repro.graph.adjacency import Graph
from repro.runs.manifest import (
    RunManifest,
    fingerprint_run,
    graph_digest,
    load_manifest,
    manifest_path,
)
from repro.runs.segments import (
    SEGMENT_MAGIC,
    SegmentWriter,
    _HEADER,
    decode_block_record,
    decode_record,
    encode_block_record,
    encode_record,
    read_segment,
    recover_segment,
)

payloads = st.binary(max_size=120)
payload_lists = st.lists(payloads, max_size=8)


def write_file(path, records: list[bytes]) -> bytes:
    """Write a segment file holding ``records``; return its bytes."""
    data = SEGMENT_MAGIC + b"".join(encode_record(r) for r in records)
    path.write_bytes(data)
    return data


def sample_report() -> BlockReport:
    from repro.decision.features import BlockFeatures
    from repro.mce.registry import Combo

    return BlockReport(
        cliques=[frozenset({1, 2, 3}), frozenset({2, 4})],
        combo=Combo("tomita", "lists"),
        features=BlockFeatures(
            num_nodes=5, num_edges=4, density=0.4, degeneracy=2, d_star=2
        ),
        seconds=0.25,
    )


# ---------------------------------------------------------------------------
# Record codec round-trips
# ---------------------------------------------------------------------------
class TestRecordCodec:
    @settings(max_examples=80, deadline=None)
    @given(payloads)
    def test_encode_decode_roundtrip(self, payload):
        record = encode_record(payload)
        decoded, end = decode_record(record, 0)
        assert decoded == payload
        assert end == len(record)

    @settings(max_examples=40, deadline=None)
    @given(payload_lists)
    def test_concatenated_records_decode_in_order(self, items):
        data = b"".join(encode_record(p) for p in items)
        offset, out = 0, []
        while offset < len(data):
            payload, offset = decode_record(data, offset)
            out.append(payload)
        assert out == items

    @settings(max_examples=60, deadline=None)
    @given(payloads, st.integers(min_value=0, max_value=10_000))
    def test_truncated_record_is_refused(self, payload, cut):
        record = encode_record(payload)
        cut = min(cut, len(record) - 1)  # strictly shorter than the record
        with pytest.raises(CorruptSegmentError):
            decode_record(record[:cut], 0)

    @settings(max_examples=60, deadline=None)
    @given(payloads, st.integers(min_value=0), st.integers(1, 7))
    def test_bit_flip_is_refused(self, payload, pos, bit):
        record = bytearray(encode_record(payload))
        pos %= len(record)
        record[pos] ^= 1 << bit
        with pytest.raises(CorruptSegmentError):
            decode_record(bytes(record), 0)

    def test_error_carries_path_and_offset(self):
        with pytest.raises(CorruptSegmentError) as excinfo:
            decode_record(b"\x00", 0, path="seg-x")
        assert excinfo.value.path == "seg-x"
        assert excinfo.value.offset == 0


class TestBlockRecordCodec:
    def test_roundtrip_preserves_the_report(self):
        report = sample_report()
        level, block_id, back = decode_block_record(
            encode_block_record(2, 7, report)
        )
        assert (level, block_id) == (2, 7)
        assert back.cliques == report.cliques
        assert back.seconds == report.seconds

    @settings(max_examples=40, deadline=None)
    @given(payloads)
    def test_foreign_payload_is_refused(self, payload):
        # Arbitrary bytes (even with a valid CRC at the record layer)
        # must never silently decode into a block record.
        with pytest.raises(CorruptSegmentError):
            decode_block_record(payload)


# ---------------------------------------------------------------------------
# Segment files: writer, strict reader, recovery
# ---------------------------------------------------------------------------
class TestSegmentFiles:
    @settings(max_examples=30, deadline=None)
    @given(payload_lists)
    def test_writer_reader_roundtrip(self, items):
        import tempfile, os

        fd, name = tempfile.mkstemp(suffix=".seg")
        os.close(fd)
        os.unlink(name)
        try:
            with SegmentWriter(name) as writer:
                for item in items:
                    writer.append(item)
            assert list(read_segment(name)) == items
            recovered, valid = recover_segment(name)
            assert recovered == items
            from pathlib import Path

            assert valid == Path(name).stat().st_size
        finally:
            import contextlib

            with contextlib.suppress(OSError):
                os.unlink(name)

    def test_reopen_appends_without_rewriting_magic(self, tmp_path):
        path = tmp_path / "a.seg"
        with SegmentWriter(path) as writer:
            writer.append(b"one")
        with SegmentWriter(path) as writer:
            writer.append(b"two")
        assert list(read_segment(path)) == [b"one", b"two"]
        assert path.read_bytes().count(SEGMENT_MAGIC) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(payloads, min_size=1, max_size=6),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_torn_tail_recovers_the_intact_prefix(self, items, torn):
        import os, tempfile
        from pathlib import Path

        fd, name = tempfile.mkstemp(suffix=".seg")
        os.close(fd)
        path = Path(name)
        try:
            data = write_file(path, items)
            # Cut somewhere strictly inside the final record.
            last = len(data) - len(encode_record(items[-1]))
            cut = last + (torn % (len(data) - last))
            path.write_bytes(data[:cut])

            recovered, valid = recover_segment(path)
            assert recovered == items[:-1]
            assert valid == last
            # The strict reader refuses the same file outright (unless
            # the cut removed the torn record entirely).
            if cut > last:
                with pytest.raises(CorruptSegmentError):
                    list(read_segment(path))
        finally:
            os.unlink(name)

    def test_mid_file_payload_bit_flip_is_corruption(self, tmp_path):
        path = tmp_path / "seg.seg"
        data = bytearray(write_file(path, [b"alpha", b"beta", b"gamma"]))
        # Flip one payload bit of the *first* record: intact records
        # follow, so this cannot be a torn write.
        data[len(SEGMENT_MAGIC) + _HEADER.size] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptSegmentError):
            recover_segment(path)
        with pytest.raises(CorruptSegmentError):
            list(read_segment(path))

    def test_final_record_bit_flip_is_treated_as_torn(self, tmp_path):
        # A CRC failure with nothing after it is indistinguishable from
        # a torn write, so recovery drops it; the strict reader refuses.
        path = tmp_path / "seg.seg"
        data = bytearray(write_file(path, [b"alpha", b"beta"]))
        data[-1] ^= 0x80
        path.write_bytes(bytes(data))
        recovered, valid = recover_segment(path)
        assert recovered == [b"alpha"]
        assert valid == len(SEGMENT_MAGIC) + len(encode_record(b"alpha"))
        with pytest.raises(CorruptSegmentError):
            list(read_segment(path))

    def test_length_field_flip_truncates_reachable_records(self, tmp_path):
        # A bit flip in a mid-file *length* field can make the record
        # claim to extend to EOF; recovery then cannot distinguish it
        # from a torn tail and (documented behaviour) truncates the
        # later — individually intact but unreachable — records.  They
        # are re-analysed on resume, never silently lost.
        path = tmp_path / "seg.seg"
        records = [b"alpha", b"beta", b"gamma"]
        data = bytearray(write_file(path, records))
        offset = len(SEGMENT_MAGIC) + len(encode_record(b"alpha"))
        length = int.from_bytes(data[offset : offset + 4], "little")
        tail = len(data) - (offset + _HEADER.size)
        data[offset : offset + 4] = (length + tail).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        recovered, valid = recover_segment(path)
        assert recovered == [b"alpha"]
        assert valid == offset

    def test_bad_magic_is_refused_by_both_readers(self, tmp_path):
        path = tmp_path / "seg.seg"
        path.write_bytes(b"NOTASEG0" + encode_record(b"payload"))
        with pytest.raises(CorruptSegmentError):
            list(read_segment(path))
        with pytest.raises(CorruptSegmentError):
            recover_segment(path)

    def test_empty_file_recovers_to_nothing(self, tmp_path):
        # A crash between creation and the first sync: nothing to
        # replay, recovery reports zero valid bytes.
        path = tmp_path / "seg.seg"
        path.write_bytes(b"")
        assert recover_segment(path) == ([], 0)
        with pytest.raises(CorruptSegmentError):
            list(read_segment(path))

    def test_magic_only_file_is_a_valid_empty_segment(self, tmp_path):
        path = tmp_path / "seg.seg"
        path.write_bytes(SEGMENT_MAGIC)
        assert list(read_segment(path)) == []
        assert recover_segment(path) == ([], len(SEGMENT_MAGIC))


# ---------------------------------------------------------------------------
# Manifest serialisation
# ---------------------------------------------------------------------------
fingerprints = st.fixed_dictionaries(
    {
        "graph_sha256": st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
        "num_nodes": st.integers(min_value=0, max_value=10**6),
        "num_edges": st.integers(min_value=0, max_value=10**6),
        "m": st.integers(min_value=2, max_value=10**4),
        "min_adjacency": st.integers(min_value=0, max_value=64),
        "mode": st.sampled_from(["barrier", "pipeline"]),
        "combo": st.none() | st.text(max_size=12),
    }
)
partition_maps = st.dictionaries(
    st.integers(min_value=0, max_value=6),
    st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
    max_size=4,
)


class TestManifest:
    @settings(max_examples=60, deadline=None)
    @given(
        fingerprints,
        st.lists(st.text(min_size=1, max_size=20), max_size=4),
        st.sampled_from(["running", "complete"]),
        partition_maps,
    )
    def test_json_roundtrip_through_real_json(
        self, fingerprint, segments, status, partitions
    ):
        manifest = RunManifest(
            fingerprint=fingerprint,
            segments=segments,
            status=status,
            partitions=partitions,
        )
        wire = json.loads(json.dumps(manifest.to_json()))
        back = RunManifest.from_json(wire)
        assert back.fingerprint == fingerprint
        assert back.segments == segments
        assert back.status == status
        assert back.partitions == partitions
        assert back.to_json() == manifest.to_json()

    def test_completed_map_of_older_manifests_is_ignored(self):
        wire = {
            "fingerprint": {"m": 12},
            "completed": {"0": [1, 2], "1": [0]},
            "segments": ["segment-0000.seg"],
        }
        back = RunManifest.from_json(wire)
        assert back.segments == ["segment-0000.seg"]
        assert "completed" not in back.to_json()

    def test_save_load_roundtrip(self, tmp_path):
        manifest = RunManifest(
            fingerprint={"graph_sha256": "ab", "m": 12},
            segments=["segment-0000.seg"],
            partitions={0: "ab" * 32},
        )
        manifest.save(tmp_path)
        back = load_manifest(tmp_path)
        assert back.to_json() == manifest.to_json()
        # No temp files left behind by the atomic rewrite.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_malformed_payload_raises_typed_error(self):
        with pytest.raises(ResumeMismatchError):
            RunManifest.from_json({"status": "running"})  # no fingerprint
        with pytest.raises(ResumeMismatchError):
            RunManifest.from_json(
                {"fingerprint": {}, "partitions": {"zero": "ab"}}
            )

    def test_truncated_manifest_file_raises_typed_error(self, tmp_path):
        manifest = RunManifest(fingerprint={"m": 12})
        manifest.save(tmp_path)
        text = manifest_path(tmp_path).read_text()
        manifest_path(tmp_path).write_text(text[: len(text) // 2])
        with pytest.raises(ResumeMismatchError):
            load_manifest(tmp_path)

    def test_missing_manifest_raises_typed_error(self, tmp_path):
        with pytest.raises(ResumeMismatchError):
            load_manifest(tmp_path)

    def test_non_object_manifest_raises_typed_error(self, tmp_path):
        manifest_path(tmp_path).write_text("[1, 2, 3]")
        with pytest.raises(ResumeMismatchError):
            load_manifest(tmp_path)

    def test_fingerprint_mismatch_names_the_keys(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        stored = fingerprint_run(graph, m=12, min_adjacency=2, mode="barrier")
        manifest = RunManifest(fingerprint=stored)
        manifest.validate_fingerprint(stored)  # identical: fine
        changed = fingerprint_run(graph, m=13, min_adjacency=2, mode="pipeline")
        with pytest.raises(ResumeMismatchError) as excinfo:
            manifest.validate_fingerprint(changed)
        assert "m:" in str(excinfo.value)
        assert "mode:" in str(excinfo.value)

    def test_combo_is_not_a_strict_key(self):
        # Every combo enumerates the same cliques, so resuming with a
        # different algorithm/backend choice is allowed.
        graph = Graph(edges=[(0, 1)])
        stored = fingerprint_run(
            graph, m=12, min_adjacency=2, mode="barrier", combo="tomita"
        )
        manifest = RunManifest(fingerprint=stored)
        manifest.validate_fingerprint(
            fingerprint_run(
                graph, m=12, min_adjacency=2, mode="barrier", combo="anchored"
            )
        )

    def test_graph_digest_is_content_addressed(self):
        a = Graph(edges=[(0, 1), (1, 2)])
        b = Graph(edges=[(1, 2), (0, 1)])  # same content, other order
        c = Graph(edges=[(0, 1), (0, 2)])
        assert graph_digest(a) == graph_digest(b)
        assert graph_digest(a) != graph_digest(c)
