"""Memory-mapped binary trace format and streaming replay.

JSON-lines traces (:mod:`repro.traffic.trace`) are the interchange format,
but parsing them materializes every record: a million-packet trace on a
32x32 mesh costs seconds of JSON decode and hundreds of MB before the
first simulated cycle.  This module is the scale path (DESIGN.md §17):

* ``.rpt`` — a versioned little-endian container: fixed header, fixed
  32-byte records, a shared u32 word heap, and a per-chunk first-cycle
  index, laid out ``header | records | heap | index``;
* :class:`TraceFile` — read-only ``mmap`` view; opening is O(1), any
  record decodes on demand, nothing is parsed up front;
* :class:`StreamingTraceTraffic` — the replay source.  It implements the
  same ``generate`` / ``next_arrival`` / ``exhausted`` protocol as
  :class:`~repro.traffic.trace.TraceTraffic` and is bit-identical to it,
  but holds at most one decoded chunk (O(chunk), not O(trace));
* :class:`TraceFileWriter` / :func:`record_trace_to` — streaming
  recording with bounded peak memory (records go straight to the target
  file, words to a spill file that is concatenated on close);
* :func:`jsonl_to_binary` / :func:`binary_to_jsonl` /
  :func:`import_gem5_trace` — converters, exposed with the recorder via
  ``python -m repro.traffic``.

The event horizon (DESIGN.md §12) survives streaming because a trace
file always knows the due cycle of record ``i`` without decoding a
chunk: ``peek_cycle`` reads eight bytes out of the mapping.  So
``next_arrival`` stays pure — chunk caching happens only inside
``generate``, which the network calls at the due cycle anyway.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
from bisect import bisect_left
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.block import CacheBlock, DataType
from repro.noc.ni import TrafficRequest
from repro.noc.packet import PacketKind
from repro.traffic.trace import (
    TraceFormatError,
    TraceRecord,
    approx_override_marked,
    iter_recorded,
    iter_trace,
    validate_record,
)

#: File magic: identifies a repro packet trace ("RePro TRaCe").
MAGIC = b"RPROTRC\x00"
#: Current format version; readers reject anything else.
FORMAT_VERSION = 1
#: Default records per index chunk (the unit of replay memory).
DEFAULT_CHUNK_RECORDS = 4096

# Header: magic 8s | version I | header_bytes I | record_count Q |
# n_nodes I | word_bits I | chunk_records I | reserved I |
# records_off Q | heap_off Q | heap_words Q | index_off Q
_HEADER = struct.Struct("<8sIIQIIIIQQQQ")
# Record: cycle Q | src I | dst I | kind B | dtype B | approximable B |
# pad B | nwords I | heap_pos Q   (heap_pos counts u32 words, not bytes)
_RECORD = struct.Struct("<QIIBBBBIQ")
# One u64 per chunk: the first record cycle of that chunk.
_INDEX_ENTRY = struct.Struct("<Q")
# The cycle field alone, for pure O(1) lookahead.
_CYCLE = struct.Struct("<Q")
_WORD = struct.Struct("<I")

_KIND_CODES: Dict[PacketKind, int] = {
    PacketKind.CONTROL: 0,
    PacketKind.DATA: 1,
    PacketKind.NOTIFICATION: 2,
    PacketKind.NACK: 3,
}
_KIND_BY_CODE: Dict[int, PacketKind] = {
    0: PacketKind.CONTROL,
    1: PacketKind.DATA,
    2: PacketKind.NOTIFICATION,
    3: PacketKind.NACK,
}
_DTYPE_CODES: Dict[DataType, int] = {DataType.INT: 0, DataType.FLOAT: 1}
_DTYPE_BY_CODE: Dict[int, DataType] = {0: DataType.INT, 1: DataType.FLOAT}


def is_binary_trace(path: Union[str, Path]) -> bool:
    """Whether ``path`` starts with the binary trace magic.  A JSONL or
    gem5 text trace never can: their first byte is printable."""
    with open(path, "rb") as handle:
        return handle.read(len(MAGIC)) == MAGIC


class TraceFileWriter:
    """Streams :class:`TraceRecord` objects into a binary trace file.

    Peak memory is bounded by the IO buffers, not the trace: record
    structs append to the target file, word payloads spill to a side
    file (``<path>.heap.tmp``) that is concatenated behind the records
    on :meth:`close`, and the index holds one integer per chunk.  Use as
    a context manager; the header is patched with the final counts and
    offsets at close, so a crashed writer leaves a file the reader
    rejects (zeroed magic) rather than a silently short trace.
    """

    def __init__(self, path: Union[str, Path], n_nodes: int,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS):
        if n_nodes <= 1:
            raise TraceFormatError(
                f"{path}: a trace needs a mesh of at least 2 nodes, got "
                f"n_nodes={n_nodes}")
        if chunk_records <= 0:
            raise TraceFormatError(
                f"{path}: chunk_records must be positive, got "
                f"{chunk_records}")
        self._path = str(path)
        self._heap_path = self._path + ".heap.tmp"
        self.n_nodes = n_nodes
        self.chunk_records = chunk_records
        self._fh: Optional[io.BufferedWriter] = open(self._path, "wb")
        self._heap_fh: Optional[io.BufferedWriter] = \
            open(self._heap_path, "wb")
        # Placeholder header (zero magic) until close() patches it.
        self._fh.write(b"\x00" * _HEADER.size)
        self._count = 0
        self._heap_words = 0
        self._prev_cycle = -1
        self._chunk_first_cycles: List[int] = []

    def __enter__(self) -> "TraceFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    def append(self, record: TraceRecord) -> None:
        """Validate and write one record (cycles must be non-decreasing)."""
        if self._fh is None or self._heap_fh is None:
            raise TraceFormatError(
                f"{self._path}: writer is closed")
        where = f"{self._path}[record {self._count}]"
        validate_record(record, self._prev_cycle, self.n_nodes, where)
        self._prev_cycle = record.cycle
        if self._count % self.chunk_records == 0:
            self._chunk_first_cycles.append(record.cycle)
        nwords = len(record.words) if record.words else 0
        self._fh.write(_RECORD.pack(
            record.cycle, record.src, record.dst,
            _KIND_CODES[record.kind], _DTYPE_CODES[record.dtype],
            int(record.approximable), 0, nwords, self._heap_words))
        if nwords:
            self._heap_fh.write(struct.pack(f"<{nwords}I", *record.words))
            self._heap_words += nwords
        self._count += 1

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Write records from any iterable, one at a time."""
        for record in records:
            self.append(record)

    def abort(self) -> None:
        """Drop the partial output (used when recording fails midway)."""
        for fh in (self._fh, self._heap_fh):
            if fh is not None:
                fh.close()
        self._fh = self._heap_fh = None
        for path in (self._heap_path, self._path):
            if os.path.exists(path):
                os.remove(path)

    def close(self) -> None:
        """Concatenate the word heap, append the index, patch the header."""
        if self._fh is None or self._heap_fh is None:
            return
        self._heap_fh.close()
        self._heap_fh = None
        records_off = _HEADER.size
        heap_off = records_off + self._count * _RECORD.size
        with open(self._heap_path, "rb") as heap:
            while True:
                block = heap.read(1 << 20)
                if not block:
                    break
                self._fh.write(block)
        os.remove(self._heap_path)
        index_off = heap_off + self._heap_words * _WORD.size
        for first_cycle in self._chunk_first_cycles:
            self._fh.write(_INDEX_ENTRY.pack(first_cycle))
        self._fh.seek(0)
        self._fh.write(_HEADER.pack(
            MAGIC, FORMAT_VERSION, _HEADER.size, self._count,
            self.n_nodes, 32, self.chunk_records, 0,
            records_off, heap_off, self._heap_words, index_off))
        self._fh.close()
        self._fh = None


class TraceFile:
    """Read-only memory-mapped view of a binary trace.

    Opening validates the header and the declared section offsets
    against the file size, then maps the file; nothing is decoded until
    asked.  ``peek_cycle`` is an O(1) eight-byte read (pure — the basis
    of the streaming event horizon), ``read_chunk`` decodes one aligned
    chunk of records, ``seek_cycle`` bisects the chunk index.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = str(path)
        size = os.path.getsize(self.path)
        if size < _HEADER.size:
            raise TraceFormatError(
                f"{self.path}: file is {size} bytes, smaller than the "
                f"{_HEADER.size}-byte header — truncated or not a trace")
        self._fh = open(self.path, "rb")
        try:
            self._mm = mmap.mmap(self._fh.fileno(), 0,
                                 access=mmap.ACCESS_READ)
        except Exception:
            self._fh.close()
            raise
        try:
            self._load_header(size)
        except Exception:
            self.close()
            raise

    def _load_header(self, size: int) -> None:
        (magic, version, header_bytes, count, n_nodes, word_bits,
         chunk_records, _reserved, records_off, heap_off, heap_words,
         index_off) = _HEADER.unpack_from(self._mm, 0)
        if magic != MAGIC:
            raise TraceFormatError(
                f"{self.path}: bad magic {magic!r} (expected {MAGIC!r}) — "
                f"not a repro binary trace; convert JSONL with "
                f"'python -m repro.traffic convert'")
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"{self.path}: format version {version} not supported "
                f"(this reader handles version {FORMAT_VERSION})")
        if header_bytes != _HEADER.size or word_bits != 32:
            raise TraceFormatError(
                f"{self.path}: header declares header_bytes="
                f"{header_bytes}, word_bits={word_bits}; expected "
                f"{_HEADER.size} and 32")
        if n_nodes <= 1 or chunk_records <= 0:
            raise TraceFormatError(
                f"{self.path}: implausible geometry (n_nodes={n_nodes}, "
                f"chunk_records={chunk_records})")
        n_chunks = (count + chunk_records - 1) // chunk_records
        expected_heap = records_off + count * _RECORD.size
        expected_index = expected_heap + heap_words * _WORD.size
        expected_size = expected_index + n_chunks * _INDEX_ENTRY.size
        if (records_off != _HEADER.size or heap_off != expected_heap
                or index_off != expected_index or size < expected_size):
            raise TraceFormatError(
                f"{self.path}: section layout does not match the header "
                f"({count} records, {heap_words} heap words need "
                f"{expected_size} bytes; file has {size}) — file is "
                f"truncated or corrupt")
        self.record_count = count
        self.n_nodes = n_nodes
        self.chunk_records = chunk_records
        self._records_off = records_off
        self._heap_off = heap_off
        self._heap_words = heap_words
        self._index_off = index_off
        self._n_chunks = n_chunks

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the mapping (safe to call twice)."""
        if getattr(self, "_mm", None) is not None:
            self._mm.close()
            self._mm = None  # type: ignore[assignment]
        if getattr(self, "_fh", None) is not None:
            self._fh.close()
            self._fh = None  # type: ignore[assignment]

    def __enter__(self) -> "TraceFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        return self.record_count

    # -- record access -----------------------------------------------------

    def peek_cycle(self, index: int) -> int:
        """Cycle of record ``index`` without decoding it — one aligned
        u64 read from the mapping (pure; used by ``next_arrival``)."""
        return _CYCLE.unpack_from(
            self._mm, self._records_off + index * _RECORD.size)[0]

    def record(self, index: int) -> TraceRecord:
        """Decode one record (words copied out of the heap)."""
        if not 0 <= index < self.record_count:
            raise IndexError(
                f"{self.path}: record {index} out of range "
                f"[0, {self.record_count})")
        (cycle, src, dst, kind_code, dtype_code, approximable, _pad,
         nwords, heap_pos) = _RECORD.unpack_from(
            self._mm, self._records_off + index * _RECORD.size)
        try:
            kind = _KIND_BY_CODE[kind_code]
            dtype = _DTYPE_BY_CODE[dtype_code]
        except KeyError:
            raise TraceFormatError(
                f"{self.path}[record {index}]: unknown kind/dtype code "
                f"({kind_code}/{dtype_code}) — file is corrupt") from None
        words: Optional[tuple] = None
        if nwords:
            if heap_pos + nwords > self._heap_words:
                raise TraceFormatError(
                    f"{self.path}[record {index}]: word payload "
                    f"[{heap_pos}, {heap_pos + nwords}) overruns the "
                    f"{self._heap_words}-word heap — file is corrupt")
            words = struct.unpack_from(
                f"<{nwords}I", self._mm,
                self._heap_off + heap_pos * _WORD.size)
        return TraceRecord(cycle=cycle, src=src, dst=dst, kind=kind,
                           words=words, dtype=dtype,
                           approximable=bool(approximable))

    def read_chunk(self, chunk_index: int) -> List[TraceRecord]:
        """Decode one aligned chunk (records ``[chunk*C, (chunk+1)*C)``)."""
        lo = chunk_index * self.chunk_records
        hi = min(lo + self.chunk_records, self.record_count)
        return [self.record(i) for i in range(lo, hi)]

    def iter_records(self, start: int = 0,
                     stop: Optional[int] = None) -> Iterator[TraceRecord]:
        """Stream records ``[start, stop)`` chunk by chunk."""
        stop = self.record_count if stop is None else \
            min(stop, self.record_count)
        for i in range(start, stop):
            yield self.record(i)

    def chunk_first_cycle(self, chunk_index: int) -> int:
        """First record cycle of a chunk, from the index section."""
        if not 0 <= chunk_index < self._n_chunks:
            raise IndexError(
                f"{self.path}: chunk {chunk_index} out of range "
                f"[0, {self._n_chunks})")
        return _INDEX_ENTRY.unpack_from(
            self._mm, self._index_off + chunk_index * _INDEX_ENTRY.size)[0]

    def seek_cycle(self, cycle: int) -> int:
        """Index of the first record with ``record.cycle >= cycle``
        (``record_count`` if none): bisect the chunk index, then scan at
        most one chunk of cycle fields."""
        if self.record_count == 0:
            return 0
        firsts = [self.chunk_first_cycle(c) for c in range(self._n_chunks)]
        # bisect_left, not bisect_right: when ``cycle`` equals a chunk's
        # first cycle, earlier records with the same cycle may sit at the
        # tail of the previous chunk — every chunk before
        # ``bisect_left - 1`` is provably all-smaller.
        chunk = max(bisect_left(firsts, cycle) - 1, 0)
        for i in range(chunk * self.chunk_records, self.record_count):
            if self.peek_cycle(i) >= cycle:
                return i
        return self.record_count

    @property
    def last_cycle(self) -> int:
        """Cycle of the final record (-1 for an empty trace)."""
        if self.record_count == 0:
            return -1
        return self.peek_cycle(self.record_count - 1)

    def info(self) -> Dict[str, object]:
        """Header summary for the CLI and tests."""
        return {
            "path": self.path,
            "format_version": FORMAT_VERSION,
            "records": self.record_count,
            "n_nodes": self.n_nodes,
            "chunk_records": self.chunk_records,
            "chunks": self._n_chunks,
            "heap_words": self._heap_words,
            "first_cycle": self.peek_cycle(0) if self.record_count else -1,
            "last_cycle": self.last_cycle,
            "file_bytes": os.path.getsize(self.path),
        }

    def validate(self) -> None:
        """Full-file scan with the same invariants as the JSONL reader."""
        prev_cycle = -1
        for i in range(self.record_count):
            record = self.record(i)
            validate_record(record, prev_cycle, self.n_nodes,
                            f"{self.path}[record {i}]")
            prev_cycle = record.cycle
        for chunk in range(self._n_chunks):
            declared = self.chunk_first_cycle(chunk)
            actual = self.peek_cycle(chunk * self.chunk_records)
            if declared != actual:
                raise TraceFormatError(
                    f"{self.path}: chunk {chunk} index says first cycle "
                    f"{declared} but records say {actual} — index is "
                    f"corrupt")


class StreamingTraceTraffic:
    """Replays a binary trace with O(chunk) memory.

    Protocol-identical and bit-identical to
    :class:`~repro.traffic.trace.TraceTraffic` over the same records:
    ``loop`` and ``approx_override`` carry the same semantics, including
    the deterministic ordinal re-marking and the loop wrap inside
    ``generate``.  ``start``/``stop`` replay a half-open record window,
    which is how parallel campaigns shard one file across workers
    (workers get the path plus offsets, never an open handle).

    ``next_arrival`` never touches the chunk cache: the due cycle of the
    next record comes from the cached chunk when present, else from an
    O(1) ``peek_cycle``.  The cache mutates only inside ``generate`` —
    i.e. only on cycles where traffic is actually consumed — so skipped
    windows leave the source byte-identical to a stepped run.
    """

    def __init__(self, trace: Union[str, Path, TraceFile],
                 loop: bool = False,
                 approx_override: Optional[float] = None,
                 start: int = 0, stop: Optional[int] = None):
        if isinstance(trace, TraceFile):
            self._file = trace
            self._path = trace.path
        else:
            self._path = str(trace)
            self._file = TraceFile(self._path)
        count = self._file.record_count
        self._start = max(start, 0)
        self._stop = count if stop is None else min(stop, count)
        if self._start > self._stop:
            raise TraceFormatError(
                f"{self._path}: replay window [{start}, {stop}) is empty "
                f"or inverted (trace has {count} records)")
        self.loop = loop
        self.approx_override = approx_override
        self._index = self._start
        self._offset = 0
        self._ordinal = 0
        # One decoded chunk: records [_chunk_lo, _chunk_hi).
        self._chunk: List[TraceRecord] = []
        self._chunk_lo = 0
        self._chunk_hi = 0

    # -- chunk cache -------------------------------------------------------

    def _record(self, index: int) -> TraceRecord:
        """Record ``index`` via the chunk cache (loads its chunk).

        Only called from ``generate`` — see the class docstring for why
        ``next_arrival`` must not reach here."""
        if not self._chunk_lo <= index < self._chunk_hi:
            chunk_index = index // self._file.chunk_records
            self._chunk = self._file.read_chunk(chunk_index)
            self._chunk_lo = chunk_index * self._file.chunk_records
            self._chunk_hi = self._chunk_lo + len(self._chunk)
        return self._chunk[index - self._chunk_lo]

    def _due(self, index: int) -> int:
        """Due cycle of record ``index`` — pure: reads the cached chunk
        if it covers ``index``, else peeks the mapping."""
        if self._chunk_lo <= index < self._chunk_hi:
            cycle = self._chunk[index - self._chunk_lo].cycle
        else:
            cycle = self._file.peek_cycle(index)
        return cycle + self._offset

    # -- traffic-source protocol -------------------------------------------

    def exhausted(self, cycle: int) -> bool:
        """True when a non-looping window has been fully injected."""
        return not self.loop and self._index >= self._stop

    def _mark(self, request: TrafficRequest) -> TrafficRequest:
        if (self.approx_override is None
                or request.kind is not PacketKind.DATA):
            return request
        self._ordinal += 1
        approximable = approx_override_marked(self._ordinal,
                                              self.approx_override)
        block = CacheBlock(request.block.words, dtype=request.block.dtype,
                           approximable=approximable)
        return TrafficRequest(request.src, request.dst, request.kind, block)

    def next_arrival(self, now: int,
                     limit: Optional[int] = None) -> Optional[int]:
        """Earliest cycle ``>= now`` with recorded injections (pure)."""
        if self._index >= self._stop:
            return None
        when = self._due(self._index)
        if when < now:
            when = now  # defensive: overdue record -> never skip past it
        if limit is not None and when > limit:
            return None
        return when

    def generate(self, cycle: int) -> List[TrafficRequest]:
        """Requests recorded for this cycle."""
        requests = []
        while self._index < self._stop:
            if self._due(self._index) > cycle:
                break
            record = self._record(self._index)
            requests.append(self._mark(record.to_request()))
            self._index += 1
            if self._index >= self._stop and self.loop:
                self._index = self._start
                self._offset = cycle + 1
        return requests

    # -- pickling (RunSpec sharding) ---------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        return {
            "path": self._path, "loop": self.loop,
            "approx_override": self.approx_override,
            "start": self._start, "stop": self._stop,
            "index": self._index, "offset": self._offset,
            "ordinal": self._ordinal,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._path = state["path"]  # type: ignore[assignment]
        self._file = TraceFile(self._path)
        self.loop = state["loop"]  # type: ignore[assignment]
        self.approx_override = \
            state["approx_override"]  # type: ignore[assignment]
        self._start = state["start"]  # type: ignore[assignment]
        self._stop = state["stop"]  # type: ignore[assignment]
        self._index = state["index"]  # type: ignore[assignment]
        self._offset = state["offset"]  # type: ignore[assignment]
        self._ordinal = state["ordinal"]  # type: ignore[assignment]
        self._chunk = []
        self._chunk_lo = 0
        self._chunk_hi = 0


# -- recording and conversion ----------------------------------------------

def write_trace(records: Iterable[TraceRecord], path: Union[str, Path],
                n_nodes: int,
                chunk_records: int = DEFAULT_CHUNK_RECORDS) -> int:
    """Write any record iterable to a binary trace; returns the count."""
    with TraceFileWriter(path, n_nodes,
                         chunk_records=chunk_records) as writer:
        writer.extend(records)
        count = writer._count
    return count


def record_trace_to(source, cycles: int, path: Union[str, Path],
                    n_nodes: int,
                    chunk_records: int = DEFAULT_CHUNK_RECORDS) -> int:
    """Run a traffic source and stream its injections straight to a
    binary trace file — peak memory stays O(chunk) no matter how many
    packets the run produces.  Returns the record count."""
    return write_trace(iter_recorded(source, cycles), path, n_nodes,
                       chunk_records=chunk_records)


def jsonl_to_binary(src: Union[str, Path], dst: Union[str, Path],
                    n_nodes: Optional[int] = None,
                    chunk_records: int = DEFAULT_CHUNK_RECORDS) -> int:
    """Convert a JSON-lines trace to the binary format.

    When ``n_nodes`` is unknown, a first streaming pass infers it as
    ``max(src, dst) + 1`` — two cheap passes instead of materializing
    the trace."""
    if n_nodes is None:
        n_nodes = 0
        for record in iter_trace(src):
            n_nodes = max(n_nodes, record.src + 1, record.dst + 1)
        if n_nodes < 2:
            raise TraceFormatError(
                f"{src}: empty trace; pass the node count explicitly")
    return write_trace(iter_trace(src, n_nodes=n_nodes), dst, n_nodes,
                       chunk_records=chunk_records)


def binary_to_jsonl(src: Union[str, Path], dst: Union[str, Path]) -> int:
    """Convert a binary trace back to JSON-lines; returns the count."""
    with TraceFile(src) as trace, open(dst, "w") as out:
        for record in trace.iter_records():
            out.write(record.to_json())
            out.write("\n")
        return trace.record_count


def parse_gem5_line(line: str, where: str) -> Optional[TraceRecord]:
    """Parse one line of a gem5-style packet trace.

    Accepted shape (whitespace-separated, ``#`` comments ignored)::

        <cycle> <src> <dst> <type> [word,word,...]

    where ``<type>`` is one of the :class:`PacketKind` values (``data``
    records take the comma-separated word list; an optional trailing
    ``approx`` token marks the block approximable).  Returns None for
    blank/comment lines.
    """
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    fields = text.split()
    if len(fields) < 4:
        raise TraceFormatError(
            f"{where}: expected '<cycle> <src> <dst> <type> [words]', "
            f"got {len(fields)} fields")
    try:
        cycle, src, dst = int(fields[0]), int(fields[1]), int(fields[2])
    except ValueError:
        raise TraceFormatError(
            f"{where}: cycle/src/dst must be integers, got "
            f"{fields[:3]!r}") from None
    try:
        kind = PacketKind(fields[3].lower())
    except ValueError:
        raise TraceFormatError(
            f"{where}: unknown packet type {fields[3]!r} (expected one "
            f"of {[k.value for k in PacketKind]})") from None
    words: Optional[tuple] = None
    approximable = False
    rest = fields[4:]
    if rest and rest[-1].lower() == "approx":
        approximable = True
        rest = rest[:-1]
    if kind is PacketKind.DATA:
        if not rest:
            raise TraceFormatError(
                f"{where}: data record needs a comma-separated word list")
        try:
            words = tuple(int(w, 0) for w in rest[0].split(",") if w)
        except ValueError:
            raise TraceFormatError(
                f"{where}: malformed word list {rest[0]!r}") from None
    elif rest:
        raise TraceFormatError(
            f"{where}: {kind.value} record must not carry words, got "
            f"{rest!r}")
    return TraceRecord(cycle=cycle, src=src, dst=dst, kind=kind,
                       words=words, dtype=DataType.INT,
                       approximable=approximable)


def iter_gem5_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream a gem5-style text trace as validated records."""
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            record = parse_gem5_line(line, f"{path}:{lineno}")
            if record is not None:
                yield record


def import_gem5_trace(src: Union[str, Path], dst: Union[str, Path],
                      n_nodes: Optional[int] = None,
                      chunk_records: int = DEFAULT_CHUNK_RECORDS
                      ) -> Tuple[int, int]:
    """Import an external gem5-style trace into the binary format.

    Returns ``(record_count, n_nodes)``; like :func:`jsonl_to_binary`
    the node count is inferred with a first streaming pass when not
    given."""
    if n_nodes is None:
        n_nodes = 0
        for record in iter_gem5_trace(src):
            n_nodes = max(n_nodes, record.src + 1, record.dst + 1)
        if n_nodes < 2:
            raise TraceFormatError(
                f"{src}: empty trace; pass the node count explicitly")
    count = write_trace(iter_gem5_trace(src), dst, n_nodes,
                        chunk_records=chunk_records)
    return count, n_nodes
