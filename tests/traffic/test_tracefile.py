"""Tests for the memory-mapped binary trace format (DESIGN.md §17).

Round-trip properties are hypothesis-driven: arbitrary valid record
streams must survive ``write_trace`` -> ``TraceFile`` unchanged and
re-encode byte-identically; corrupt containers must be rejected with an
error naming the offending location.  The streaming replayer is checked
protocol-call-by-protocol-call against :class:`TraceTraffic` on the
identical records (the network-level identity suite lives in
``test_streaming_identity.py``).
"""

import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import DataType
from repro.noc.packet import PacketKind
from repro.traffic.trace import (
    TraceFormatError,
    TraceRecord,
    TraceTraffic,
    iter_trace,
    load_trace,
    save_trace,
    validate_record,
)
from repro.traffic.tracefile import (
    MAGIC,
    StreamingTraceTraffic,
    TraceFile,
    TraceFileWriter,
    binary_to_jsonl,
    import_gem5_trace,
    is_binary_trace,
    jsonl_to_binary,
    write_trace,
)

N_NODES = 16


@st.composite
def record_streams(draw, max_records=40):
    """Cycle-sorted streams of valid records on an ``N_NODES`` mesh."""
    n = draw(st.integers(min_value=0, max_value=max_records))
    records = []
    cycle = 0
    for _ in range(n):
        cycle += draw(st.integers(min_value=0, max_value=3))
        src = draw(st.integers(min_value=0, max_value=N_NODES - 1))
        dst = draw(st.integers(min_value=0, max_value=N_NODES - 2))
        if dst >= src:
            dst += 1
        kind = draw(st.sampled_from(list(PacketKind)))
        if kind is PacketKind.DATA:
            words = tuple(draw(st.lists(
                st.integers(min_value=0, max_value=(1 << 32) - 1),
                min_size=1, max_size=16)))
            records.append(TraceRecord(
                cycle=cycle, src=src, dst=dst, kind=kind, words=words,
                dtype=draw(st.sampled_from([DataType.INT, DataType.FLOAT])),
                approximable=draw(st.booleans())))
        else:
            records.append(TraceRecord(cycle=cycle, src=src, dst=dst,
                                       kind=kind))
    return records


def _write(records, path, chunk_records=8):
    return write_trace(records, path, n_nodes=N_NODES,
                       chunk_records=chunk_records)


class TestBinaryRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(records=record_streams())
    def test_roundtrip_and_reencode_byte_identical(self, records,
                                                   tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rt")
        path = tmp / "t.rpt"
        assert _write(records, path) == len(records)
        with TraceFile(path) as trace:
            assert len(trace) == len(records)
            assert list(trace.iter_records()) == records
            trace.validate()
            # Re-encoding the decoded records must reproduce the file
            # byte for byte: the format has exactly one encoding.
            again = tmp / "t2.rpt"
            _write(list(trace.iter_records()), again)
            assert again.read_bytes() == path.read_bytes()

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.rpt"
        assert _write([], path) == 0
        with TraceFile(path) as trace:
            assert len(trace) == 0
            assert trace.last_cycle == -1
            assert list(trace.iter_records()) == []
            trace.validate()

    def test_info_summarizes_header(self, tmp_path):
        records = [TraceRecord(cycle=c, src=0, dst=1,
                               kind=PacketKind.CONTROL)
                   for c in range(20)]
        path = tmp_path / "t.rpt"
        _write(records, path, chunk_records=8)
        with TraceFile(path) as trace:
            info = trace.info()
        assert info["records"] == 20
        assert info["n_nodes"] == N_NODES
        assert info["chunk_records"] == 8
        assert info["chunks"] == 3
        assert info["first_cycle"] == 0
        assert info["last_cycle"] == 19

    @settings(max_examples=25, deadline=None)
    @given(records=record_streams(), probe=st.integers(min_value=0,
                                                       max_value=140))
    def test_seek_cycle_matches_linear_scan(self, records, probe,
                                            tmp_path_factory):
        path = tmp_path_factory.mktemp("seek") / "t.rpt"
        _write(records, path, chunk_records=4)
        expected = next((i for i, r in enumerate(records)
                         if r.cycle >= probe), len(records))
        with TraceFile(path) as trace:
            assert trace.seek_cycle(probe) == expected

    def test_is_binary_trace_distinguishes_formats(self, tmp_path):
        binary = tmp_path / "t.rpt"
        jsonl = tmp_path / "t.jsonl"
        records = [TraceRecord(cycle=0, src=0, dst=1,
                               kind=PacketKind.CONTROL)]
        _write(records, binary)
        save_trace(records, jsonl)
        assert is_binary_trace(binary)
        assert not is_binary_trace(jsonl)


class TestCorruptionRejected:
    def _records(self):
        return [TraceRecord(cycle=c, src=c % 3, dst=(c % 3) + 1,
                            kind=PacketKind.DATA, words=(c, c + 1),
                            dtype=DataType.INT)
                for c in range(30)]

    def _written(self, tmp_path):
        path = tmp_path / "t.rpt"
        _write(self._records(), path)
        return path

    def test_shorter_than_header(self, tmp_path):
        path = tmp_path / "t.rpt"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(TraceFormatError, match="smaller than"):
            TraceFile(path)

    def test_bad_magic_names_converter(self, tmp_path):
        path = self._written(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError,
                           match="bad magic.*repro.traffic convert"):
            TraceFile(path)

    def test_unsupported_version(self, tmp_path):
        path = self._written(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="version 99"):
            TraceFile(path)

    def test_truncated_file(self, tmp_path):
        path = self._written(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 40])
        with pytest.raises(TraceFormatError,
                           match="truncated or corrupt"):
            TraceFile(path)

    def test_corrupt_kind_code_names_record(self, tmp_path):
        path = self._written(tmp_path)
        raw = bytearray(path.read_bytes())
        # Record 2's kind byte: header + 2 records + cycle(8)+src(4)+dst(4).
        offset = 72 + 2 * 32 + 16
        raw[offset] = 250
        path.write_bytes(bytes(raw))
        with TraceFile(path) as trace:
            with pytest.raises(TraceFormatError,
                               match=r"record 2.*unknown kind"):
                trace.record(2)

    def test_heap_overrun_names_record(self, tmp_path):
        path = self._written(tmp_path)
        raw = bytearray(path.read_bytes())
        # Record 0's nwords field (offset 20 inside the record).
        raw[72 + 20] = 255
        path.write_bytes(bytes(raw))
        with TraceFile(path) as trace:
            with pytest.raises(TraceFormatError,
                               match=r"record 0.*overruns"):
                trace.record(0)

    def test_writer_abort_leaves_nothing(self, tmp_path):
        path = tmp_path / "t.rpt"
        with pytest.raises(RuntimeError):
            with TraceFileWriter(path, n_nodes=N_NODES) as writer:
                writer.append(TraceRecord(cycle=0, src=0, dst=1,
                                          kind=PacketKind.CONTROL))
                raise RuntimeError("boom")
        assert not os.path.exists(path)
        assert not os.path.exists(str(path) + ".heap.tmp")

    def test_writer_rejects_out_of_order_cycles(self, tmp_path):
        path = tmp_path / "t.rpt"
        with pytest.raises(TraceFormatError,
                           match=r"record 1.*goes backwards"):
            with TraceFileWriter(path, n_nodes=N_NODES) as writer:
                writer.append(TraceRecord(cycle=5, src=0, dst=1,
                                          kind=PacketKind.CONTROL))
                writer.append(TraceRecord(cycle=4, src=0, dst=1,
                                          kind=PacketKind.CONTROL))
        assert not os.path.exists(path)

    def test_writer_rejects_node_outside_mesh(self, tmp_path):
        with pytest.raises(TraceFormatError, match="outside the mesh"):
            with TraceFileWriter(tmp_path / "t.rpt", n_nodes=4) as writer:
                writer.append(TraceRecord(cycle=0, src=0, dst=9,
                                          kind=PacketKind.CONTROL))


class TestRecordValidation:
    def _control(self, **kw):
        base = dict(cycle=0, src=0, dst=1, kind=PacketKind.CONTROL)
        base.update(kw)
        return TraceRecord(**base)

    @pytest.mark.parametrize("record,pattern", [
        (TraceRecord(cycle=-1, src=0, dst=1, kind=PacketKind.CONTROL),
         "negative cycle"),
        (TraceRecord(cycle=0, src=2, dst=2, kind=PacketKind.CONTROL),
         "src and dst are both"),
        (TraceRecord(cycle=0, src=0, dst=99, kind=PacketKind.CONTROL),
         r"dst node 99 outside the mesh"),
        (TraceRecord(cycle=0, src=-3, dst=1, kind=PacketKind.CONTROL),
         r"src node -3 outside the mesh"),
        (TraceRecord(cycle=0, src=0, dst=1, kind=PacketKind.DATA,
                     words=()), "carries no words"),
        (TraceRecord(cycle=0, src=0, dst=1, kind=PacketKind.DATA,
                     words=(1 << 32,)), r"word 0 is .*2\*\*32"),
        (TraceRecord(cycle=0, src=0, dst=1, kind=PacketKind.CONTROL,
                     words=(1,)), "must not carry words"),
    ])
    def test_invalid_records_rejected(self, record, pattern):
        with pytest.raises(TraceFormatError, match=pattern):
            validate_record(record, prev_cycle=-1, n_nodes=N_NODES,
                            where="here")

    def test_backwards_cycle_names_previous(self):
        with pytest.raises(TraceFormatError,
                           match="cycle 3 goes backwards.*cycle 7"):
            validate_record(self._control(cycle=3), prev_cycle=7,
                            n_nodes=N_NODES, where="here")

    def test_unknown_n_nodes_skips_range_check(self):
        validate_record(self._control(dst=10_000), prev_cycle=-1,
                        n_nodes=None, where="here")


class TestJsonlErrors:
    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = TraceRecord(cycle=0, src=0, dst=1,
                           kind=PacketKind.CONTROL).to_json()
        path.write_text(good + "\n" + '{"c":1,"s":2}\n')
        with pytest.raises(TraceFormatError,
                           match=r"t\.jsonl:2: missing required field"):
            load_trace(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceFormatError,
                           match=r"t\.jsonl:1: not valid JSON"):
            load_trace(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"c":0,"s":0,"d":1,"k":"warp"}\n')
        with pytest.raises(TraceFormatError, match="unknown packet kind"):
            load_trace(path)

    def test_word_out_of_range(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"c":0,"s":0,"d":1,"k":"data","w":[-5]}\n')
        with pytest.raises(TraceFormatError, match="word 0 is -5"):
            load_trace(path)

    def test_cycle_monotonicity_across_stream(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [TraceRecord(cycle=5, src=0, dst=1,
                               kind=PacketKind.CONTROL),
                   TraceRecord(cycle=2, src=0, dst=1,
                               kind=PacketKind.CONTROL)]
        with open(path, "w") as fh:
            for record in records:
                fh.write(record.to_json() + "\n")
        with pytest.raises(TraceFormatError,
                           match=r"t\.jsonl:2.*goes backwards"):
            load_trace(path)

    def test_mesh_range_enforced_when_given(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"c":0,"s":0,"d":7,"k":"control"}\n')
        assert load_trace(path)  # fine without a mesh bound
        with pytest.raises(TraceFormatError, match="outside the mesh"):
            load_trace(path, n_nodes=4)


class TestStreamingIO:
    def test_iter_trace_streams_same_records(self, tmp_path):
        records = [TraceRecord(cycle=c, src=0, dst=1,
                               kind=PacketKind.CONTROL) for c in range(9)]
        path = tmp_path / "t.jsonl"
        save_trace(records, path)
        assert list(iter_trace(path)) == records == load_trace(path)

    def test_save_trace_accepts_generator(self, tmp_path):
        def generated():
            for c in range(5):
                yield TraceRecord(cycle=c, src=0, dst=1,
                                  kind=PacketKind.CONTROL)
        path = tmp_path / "t.jsonl"
        save_trace(generated(), path)
        assert len(load_trace(path)) == 5

    def test_write_trace_accepts_generator(self, tmp_path):
        def generated():
            for c in range(5):
                yield TraceRecord(cycle=c, src=0, dst=1,
                                  kind=PacketKind.CONTROL)
        path = tmp_path / "t.rpt"
        assert _write(generated(), path) == 5


class TestConverters:
    def _records(self):
        return [TraceRecord(cycle=c, src=c % 4, dst=(c % 4) + 1,
                            kind=PacketKind.DATA if c % 3 == 0
                            else PacketKind.CONTROL,
                            words=(c, 7) if c % 3 == 0 else None,
                            dtype=DataType.FLOAT if c % 6 == 0
                            else DataType.INT,
                            approximable=c % 2 == 0 and c % 3 == 0)
                for c in range(25)]

    def test_jsonl_binary_jsonl_byte_identical(self, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        binary = tmp_path / "t.rpt"
        back = tmp_path / "back.jsonl"
        save_trace(self._records(), jsonl)
        assert jsonl_to_binary(jsonl, binary, n_nodes=N_NODES) == 25
        assert binary_to_jsonl(binary, back) == 25
        assert back.read_bytes() == jsonl.read_bytes()

    def test_jsonl_to_binary_infers_mesh(self, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        binary = tmp_path / "t.rpt"
        save_trace(self._records(), jsonl)
        jsonl_to_binary(jsonl, binary)
        with TraceFile(binary) as trace:
            assert trace.n_nodes == 5  # max node id + 1

    def test_empty_jsonl_needs_explicit_nodes(self, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        jsonl.write_text("")
        with pytest.raises(TraceFormatError, match="empty trace"):
            jsonl_to_binary(jsonl, tmp_path / "t.rpt")

    def test_gem5_import(self, tmp_path):
        src = tmp_path / "gem5.txt"
        src.write_text(
            "# cycle src dst type words\n"
            "0 0 1 control\n"
            "2 1 3 data 0xdeadbeef,16,7 approx\n"
            "2 3 0 data 1,2\n"
            "\n"
            "9 2 1 nack  # trailing comment\n")
        binary = tmp_path / "t.rpt"
        count, n_nodes = import_gem5_trace(src, binary)
        assert (count, n_nodes) == (4, 4)
        with TraceFile(binary) as trace:
            records = list(trace.iter_records())
        assert records[1].words == (0xDEADBEEF, 16, 7)
        assert records[1].approximable
        assert records[3].kind is PacketKind.NACK

    @pytest.mark.parametrize("line,pattern", [
        ("0 0 1", "expected '<cycle>"),
        ("x 0 1 control", "must be integers"),
        ("0 0 1 warp", "unknown packet type"),
        ("0 0 1 data", "needs a comma-separated word list"),
        ("0 0 1 data 1,zap", "malformed word list"),
        ("0 0 1 control 1,2", "must not carry words"),
    ])
    def test_gem5_errors_name_line(self, tmp_path, line, pattern):
        src = tmp_path / "gem5.txt"
        src.write_text(line + "\n")
        with pytest.raises(TraceFormatError,
                           match=r"gem5\.txt:1.*" + pattern.split()[0]):
            import_gem5_trace(src, tmp_path / "t.rpt", n_nodes=4)


def _drain(source, cycles):
    """Full observable protocol transcript over a cycle range."""
    transcript = []
    for cycle in range(cycles):
        requests = source.generate(cycle)
        transcript.append((
            source.exhausted(cycle),
            [(r.src, r.dst, r.kind,
              tuple(r.block.words) if r.block else None,
              r.block.approximable if r.block else None)
             for r in requests]))
    return transcript


class TestStreamingParity:
    """StreamingTraceTraffic vs TraceTraffic, call for call."""

    @settings(max_examples=25, deadline=None)
    @given(records=record_streams(), loop=st.booleans(),
           override=st.sampled_from([None, 0.25, 0.75]))
    def test_protocol_transcripts_identical(self, records, loop, override,
                                            tmp_path_factory):
        path = tmp_path_factory.mktemp("par") / "t.rpt"
        _write(records, path, chunk_records=4)
        cycles = (records[-1].cycle + 5) * 2 if records else 10
        reference = TraceTraffic(list(records), loop=loop,
                                 approx_override=override)
        streaming = StreamingTraceTraffic(path, loop=loop,
                                          approx_override=override)
        assert _drain(streaming, cycles) == _drain(reference, cycles)

    def test_window_matches_sliced_list(self, tmp_path):
        records = [TraceRecord(cycle=c // 2, src=c % 3, dst=(c % 3) + 1,
                               kind=PacketKind.CONTROL)
                   for c in range(30)]
        path = tmp_path / "t.rpt"
        _write(records, path, chunk_records=4)
        reference = TraceTraffic(records[5:20], loop=True)
        streaming = StreamingTraceTraffic(path, loop=True, start=5,
                                          stop=20)
        assert _drain(streaming, 60) == _drain(reference, 60)

    def test_empty_window_rejected(self, tmp_path):
        path = tmp_path / "t.rpt"
        _write([TraceRecord(cycle=0, src=0, dst=1,
                            kind=PacketKind.CONTROL)], path)
        with pytest.raises(TraceFormatError, match="empty or inverted"):
            StreamingTraceTraffic(path, start=5, stop=2)

    def test_pickle_resumes_mid_replay(self, tmp_path):
        records = [TraceRecord(cycle=c, src=c % 3, dst=(c % 3) + 1,
                               kind=PacketKind.DATA, words=(c,),
                               dtype=DataType.INT)
                   for c in range(20)]
        path = tmp_path / "t.rpt"
        _write(records, path, chunk_records=4)
        original = StreamingTraceTraffic(path, loop=True,
                                         approx_override=0.5)
        _drain(original, 7)
        resumed = pickle.loads(pickle.dumps(original))
        assert _drain(resumed, 40) == _drain(original, 40)
