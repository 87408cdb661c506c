"""Block-based incremental file synchronization.

The sender holds a *target* file, the receiver holds a *basis*.  The
receiver computes a :class:`FileSignature` of its basis (a weak rolling
checksum plus a strong digest per block) and ships it to the sender; the
sender scans the target against the signature and produces a
:class:`FileDelta` of copy/literal instructions that reconstructs the
target exactly from the basis.  :func:`sync_tree` lifts the same scheme
to whole file trees.

The engine works in bounded memory.  Files stream through it
``READ_CHUNK`` bytes at a time, and a file's scan and rebuild are one
pipeline, as rsync's sender streams literal data between block tokens
and its receiver writes as it reads: the scan yields copy runs and
literal bytes as soon as it has passed them, and the rebuild reads only
the basis ranges each copy needs and digests the rebuilt bytes as they
come.  :func:`sync_tree` passes tree entries to the engine as sources
that render one byte range at a time: it signs the basis entry from
its own source, scans the target's, and feeds each patched file's scan
straight into the rebuild of its basis, so no basis, target, literal
or rebuilt file is held whole.

The weak checksum of block bytes X[k..l] is ``a + 2^16 * b``, with
a = sum(X) mod 2^16 and b = sum((l - i + 1) * X[i]) mod 2^16, as
rsync defines it.

A signature is two columns, as rsync keeps a basis's sums in one flat
array: the blocks' weak checksums as uint32 and their strong digests
back to back, each column one ``bytes`` object, about 20 bytes per
block in all.  A signature reads its basis in spans of whole blocks, as
rsync's receiver reads its basis one block after another, and takes
the weak checksums of a span's blocks a slice of rows at a time: a
row's ``a`` is its sum and its ``b`` the sum of its products with the
weights (L, ..., 1), both taken in uint16.  rsync defines both sums
mod 2^16, and uint16 arithmetic wraps mod 2^16, so the sums are exact
for any block size and in any order.

The delta scan computes the weak checksum of every window start one
scan window at a time, also in uint16: the sums of every run of ``m``
bytes give those of every run of ``2m`` bytes in a few whole-array
steps, so one doubling per bit of the block size builds every start's
``a`` and ``b`` (see :func:`_window_weaks`).  A start goes on to the
exact lookup only if its weak checksum passes a two-probe membership
table.  Each known weak sets two slots, keyed, as rsync hashes its
whole rolling sum into its tag table, by the top bits of two
multiplicative mixes of all 32 weak bits: the low bits alone hold all
of ``a``, which for random data sits in a narrow band, so a table
keyed on them fills up as the basis grows.  A start passes only if
both of its slots are set, and its second slot is read only if its
first is set.  The table is sized from the basis, with at least
2^``FILTER_MIN_BITS`` slots and ``FILTER_SLOTS_PER_WEAK`` slots per
known weak checksum, so at most one slot in 8 is set and, with
well-mixed keys, at most about one unmatched start in 64 passes both
probes at any basis size.  A single probe would need a table twice
the size to pass one in 32: probing two slots keeps the pass rate with
half the table, which keeps more of it in cache (Putze, Sanders and
Singler, WEA 2007).

Wherever a copy run could continue, the block at the scan position is
first looked up by strong digest alone, so aligned matches skip the
rolling scan.  Where that check fails, the scan opens a window of
``4 * block size`` starts, since the next match is usually near; each
window that runs out without a match doubles the next one, up to
``SCAN_WINDOW`` starts, and a match resets it.  Every window of a scan
computes in the same arrays, made once per scan (see
:class:`_ScanWork`).  Beyond the signature, working memory is
O(``READ_CHUNK`` + ``SCAN_WINDOW`` + block size), whatever the file
size.

The functions that compute with arrays import numpy themselves, so a
process that imports this module, or syncs trees whose files are all
unchanged, created or deleted, never loads it.

Every delta carries the digest of its target, and the receiver checks
the rebuilt bytes against it.  The bytes API (:func:`apply_delta`, and
bytes passed to :func:`compute_signature` and :func:`compute_delta`)
runs the same code over views of the caller's buffers, and collects
each literal run of the scan into one op.

The strong digest of blocks and whole files is SHA-256 truncated to
``DIGEST_WIDTH`` = 16 bytes, as rsync moved its strong checksum from
MD4 to faster ones: with SHA extensions, OpenSSL's SHA-256 hashes about
twice as fast as blake2b, and the truncation keeps the 128-bit check
and its wire cost.

Wire accounting is modeled, not framed: signatures cost
``blocks * (4 + digest width)`` bytes, each copy op 9 bytes, each
literal op its (compression-scaled) payload plus 5 bytes, and every file
adds a fixed 64-byte protocol overhead.  Compression itself is modeled
by a per-call ``wire_ratio`` that scales literal payloads; 1.0 means
off.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator

from .layer_store import ContentDescriptor, FileTree, TreeGroup, materialize_entry

if TYPE_CHECKING:
    import numpy as np

DIGEST_WIDTH = 16  # SHA-256 truncated to 128 bits, fixed everywhere
MIN_BLOCK_SIZE = 16
# Largest block size.  It bounds the working memory of one block:
# signatures and scans hold a few uint16 and uint32 arrays of a block's
# length (or of a scan window's, if longer), tens of MiB at this size.
MAX_BLOCK_SIZE = 1 << 23
DEFAULT_BLOCK_SIZE = 2048

SIG_BYTES_PER_BLOCK = 4 + DIGEST_WIDTH
COPY_OP_WIRE = 9
LITERAL_OP_WIRE = 5
FILE_WIRE_OVERHEAD = 64
VERIFY_WIRE = DIGEST_WIDTH  # whole-file checksum for forced re-verification

# Most starts in one delta-scan window, and bytes per signature slice.
# Windows start at four blocks' worth of starts after a failed aligned
# check and double while they find no match, so a scan reads little
# past the next match and still takes long unmatched runs in big
# vectorized steps.
SCAN_WINDOW = 1 << 16
# The delta scan's membership filter: at least 2^FILTER_MIN_BITS slots
# and FILTER_SLOTS_PER_WEAK slots per known weak checksum.  Each known
# weak sets two slots, keyed by the top bits of the weak times each of
# WEAK_MIXES (2^32 over the golden ratio, and xxHash's second prime).
FILTER_MIN_BITS = 18
FILTER_SLOTS_PER_WEAK = 16
WEAK_MIXES = (0x9E3779B1, 0x85EBCA77)
# Bytes per read when a file streams through the engine: delta scans
# and rebuilds read their file this many bytes at a time, and
# signatures as many whole blocks as fit in it (one, if a block is
# longer).
READ_CHUNK = 1 << 18

# A file to read: its length, and a function returning bytes [start, stop).
Source = tuple[int, Callable[[int, int], bytes]]


class DeltaSyncError(Exception):
    """Base class for synchronization failures."""


class BasisMismatchError(DeltaSyncError):
    """The basis a delta is applied to is not the one it was made for."""


class CorruptDeltaError(DeltaSyncError):
    """A delta references blocks outside the basis, has a bad length, or
    rebuilds bytes that do not match its target digest."""


def strong_digest(data: bytes) -> bytes:
    """128-bit collision-resistant digest used for blocks and whole files:
    SHA-256 truncated to ``DIGEST_WIDTH`` bytes.  The incremental
    digests of whole files in this module truncate the same way."""
    return hashlib.sha256(data).digest()[:DIGEST_WIDTH]


def _weights(L: int) -> np.ndarray:
    """The weights (L, ..., 1) of ``b``, mod 2^16, as uint16."""
    import numpy as np

    return np.arange(L, 0, -1, dtype=np.uint32).astype(np.uint16)


def _packed(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Weak checksums ``a + 2^16 * b`` from uint16 ``a`` and ``b``, as
    little-endian uint32, in ``out`` if given."""
    import numpy as np

    if out is None:
        out = np.empty(len(b), "<u4")
    out[:] = b
    out <<= 16
    out |= a
    return out


@dataclass(frozen=True)
class FileSignature:
    """Per-block checksums of a basis, plus a whole-content digest.

    The checksums are two columns of ``block_count`` rows: ``weaks``
    holds each block's weak checksum as a little-endian uint32, and
    ``strongs`` each block's strong digest, ``DIGEST_WIDTH`` bytes
    apiece.  Both are ``bytes``, so a signature is immutable and
    compares by value; numpy reads them through ``np.frombuffer``.
    """

    block_size: int
    weaks: bytes
    strongs: bytes
    total_length: int
    content_digest: bytes

    @property
    def block_count(self) -> int:
        return len(self.strongs) // DIGEST_WIDTH

    @property
    def wire_bytes(self) -> int:
        return self.block_count * SIG_BYTES_PER_BLOCK


@dataclass(frozen=True)
class CopyOp:
    """Copy ``block_count`` consecutive basis blocks starting at ``first_block``."""

    first_block: int
    block_count: int


@dataclass(frozen=True)
class LiteralOp:
    data: bytes


# A delta as a stream, in target order: copy runs, and literal bytes in
# pieces; consecutive pieces belong to one literal run.
Token = CopyOp | bytes | memoryview


@dataclass(frozen=True)
class FileDelta:
    """Instructions reconstructing a target from a basis matching
    ``basis_digest``; the rebuilt bytes must match ``target_digest``."""

    block_size: int
    ops: tuple[CopyOp | LiteralOp, ...]
    target_length: int
    basis_digest: bytes
    target_digest: bytes


@dataclass
class SyncStats:
    """Wire and work accounting for one sync operation.

    ``wire_bytes`` covers signatures, delta encoding and per-file
    protocol overhead.  ``literal_bytes`` is the literal payload as
    charged on the wire (after the modeled compression ratio).
    ``scanned_bytes`` counts target bytes the sync engine had to read
    and compare or compress.
    """

    wire_bytes: int = 0
    literal_bytes: int = 0
    scanned_bytes: int = 0
    files_unchanged: int = 0
    files_patched: int = 0
    files_created: int = 0
    files_deleted: int = 0

    def merge(self, other: "SyncStats") -> None:
        """Add ``other``'s counts to these, field by field."""
        for f in fields(SyncStats):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _bytes_source(data: bytes) -> Source:
    view = memoryview(data)
    return len(view), lambda start, stop: view[start:stop]


def _entry_source(path: str, entry: ContentDescriptor) -> Source:
    return entry.length, lambda start, stop: materialize_entry(path, entry, start, stop)


def _add_full_blocks(weaks: bytearray, strongs: bytearray, data: memoryview, L: int) -> None:
    """Append the weak checksums and strong digests of ``data``'s whole
    blocks to the signature columns.

    Full blocks are rows, taken a bounded slice of rows at a time: each
    row's ``a`` is ``rows.sum(axis=1)`` and its ``b`` the row sum of its
    products with :func:`_weights`, all in uint16, which wraps mod 2^16
    as the weak checksum is defined, so the sums are exact.
    """
    n_full = len(data) // L
    if not n_full:
        return
    import numpy as np

    rows = np.frombuffer(data, dtype=np.uint8, count=n_full * L).reshape(n_full, L)
    weights = _weights(L)
    step = max(1, SCAN_WINDOW // L)
    for first in range(0, n_full, step):
        part = rows[first:first + step]
        a = part.sum(axis=1, dtype=np.uint16)
        b = (part * weights).sum(axis=1, dtype=np.uint16)
        weaks += _packed(a, b).tobytes()
    digest = hashlib.sha256
    for i in range(0, n_full * L, L):
        strongs += digest(data[i:i + L]).digest()[:DIGEST_WIDTH]


def compute_signature(data: bytes | Source, block_size: int = DEFAULT_BLOCK_SIZE) -> FileSignature:
    """Signature of ``data``: one (weak, strong) pair per block.

    ``data`` is the basis as bytes, or as a ``(length, read)`` source, as
    :func:`compute_delta` takes its target.  It is read front to back in
    spans of as many whole blocks as fit in ``READ_CHUNK`` bytes (one
    block, if a block is longer), so only the last span can end in a
    short block, the signature's last, which is summed like any other:
    as one row of its own length.  One digest of the spans as they
    are read is the content digest.  Deterministic: same bytes and block
    size always give a bit-identical signature.
    """
    if not MIN_BLOCK_SIZE <= block_size <= MAX_BLOCK_SIZE:
        raise ValueError(
            f"block_size must be in [{MIN_BLOCK_SIZE}, {MAX_BLOCK_SIZE}], got {block_size}")
    L = block_size
    length, read = data if isinstance(data, tuple) else _bytes_source(data)
    span = max(1, READ_CHUNK // L) * L
    weaks, strongs = bytearray(), bytearray()
    content = hashlib.sha256()
    for start in range(0, length, span):
        view = memoryview(read(start, min(start + span, length)))
        content.update(view)
        _add_full_blocks(weaks, strongs, view, L)
        short = len(view) % L
        if short:
            _add_full_blocks(weaks, strongs, view[-short:], short)
    return FileSignature(
        block_size=block_size,
        weaks=bytes(weaks),
        strongs=bytes(strongs),
        total_length=length,
        content_digest=content.digest()[:DIGEST_WIDTH],
    )


def _charged_literal(length: int, wire_ratio: float) -> int:
    return math.ceil(length * wire_ratio)


def _window_weaks(window: bytes, L: int, work: _ScanWork) -> np.ndarray:
    """Weak checksum of every ``L``-byte window of ``window``, as uint32.

    Built by doubling, in uint16.  With ``a_m[i]`` and ``b_m[i]`` the
    sums of the ``m`` bytes from ``i``, weighted (1, ..., 1) and
    (m, ..., 1):

        a_2m[i] = a_m[i] + a_m[i+m]
        b_2m[i] = b_m[i] + b_m[i+m] + m * a_m[i]

    and one more byte at the end gives ``a_{m+1}[i] = a_m[i] + x[i+m]``
    and ``b_{m+1}[i] = b_m[i] + a_{m+1}[i]``.  From ``m = 1``, one
    doubling per bit of ``L`` below its top bit, plus one byte for each
    of those bits that is set, reaches ``m = L`` in about 4 * log2(L)
    whole-array steps, with no sequential prefix sum.  uint16 wraps mod
    2^16, as the weak checksum is defined, so every step is exact.

    Every step writes into the arrays of ``work`` (see
    :class:`_ScanWork`), and so does the result, which holds until the
    next window.
    """
    import numpy as np

    n = len(window)
    work.fit(n)
    x = work.x[:n]
    x[:] = np.frombuffer(window, dtype=np.uint8)
    a = b = x
    m = 1
    k = n  # the sums cover the starts [0, k)
    i = 0  # the pair the next step writes
    add, sums_a, sums_b = np.add, work.a, work.b
    for bit in bin(L)[3:]:
        k -= m
        na, nb = sums_a[i][:k], sums_b[i][:k]
        np.multiply(a[:k], np.uint16(m & 0xFFFF), na)
        add(b[:k], b[m:], nb)
        add(nb, na, nb)
        add(a[:k], a[m:], na)
        a, b, i = na, nb, i ^ 1
        m *= 2
        if bit == "1":
            k -= 1
            na, nb = sums_a[i][:k], sums_b[i][:k]
            add(a[:k], x[m:], na)
            add(b[:k], na, nb)
            a, b, i = na, nb, i ^ 1
            m += 1
    work.free = work.pairs[i ^ 1]
    return _packed(a, b, out=work.pairs[i][:k])


class _ScanWork:
    """The arrays one scan's windows compute in, made once per scan and
    grown to its longest window.

    A window's weak checksums and filter probe pass through a dozen
    arrays of its length.  Made afresh for each window, they are freed
    as it ends, the allocator may hand that memory back to the kernel,
    and the next window then faults it in again.  These arrays are
    made once per scan instead: ``x``, the window as uint16, and two
    pairs, each a uint32 array whose first half holds a uint16 ``a`` and
    second half a ``b``, which is ``10 * n`` bytes for a window of ``n``
    bytes, no more than the arrays a window made before.  The doubling
    steps of :func:`_window_weaks` alternate between the pairs, the weak
    checksums go into the pair not holding the last step, the filter
    slots into the other one (``free``), and the probe mask into ``x``,
    viewed as ``mask``.
    """

    def __init__(self) -> None:
        self.size = 0

    def fit(self, n: int) -> None:
        """Room for a window of ``n`` bytes."""
        if n > self.size:
            import numpy as np

            self.size = n
            self.x = np.empty(n, np.uint16)
            self.pairs = (np.empty(n, "<u4"), np.empty(n, "<u4"))
            halves = [pair.view(np.uint16) for pair in self.pairs]
            self.a = [h[:n] for h in halves]
            self.b = [h[n:] for h in halves]
            self.mask = self.x.view(np.bool_)


def _weak_filter(known: np.ndarray) -> np.ndarray:
    """The scan's two-probe membership table for the weak checksums
    ``known``: ``2^bits`` flags, with at least ``FILTER_MIN_BITS`` bits
    and ``FILTER_SLOTS_PER_WEAK`` slots per known weak, with each known
    weak's slots under both ``WEAK_MIXES`` set."""
    import numpy as np

    bits = max(FILTER_MIN_BITS, (FILTER_SLOTS_PER_WEAK * len(known) - 1).bit_length())
    filt = np.zeros(1 << bits, dtype=bool)
    for mix in WEAK_MIXES:
        filt[_filter_slots(known, filt, mix)] = True
    return filt


def _filter_slots(
    weaks: np.ndarray, filt: np.ndarray, mix: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The slots of the table ``filt`` that ``weaks`` key into under
    the odd multiplier ``mix``, as uint32 in ``out`` if given: the top
    bits of ``weak * mix`` mod 2^32, which mixes all 32 weak bits.  The scan
    gathers by them with ``take``, which converts them to ``intp``
    itself and reads a table larger than the cache somewhat faster
    than ``filt[slots]`` does."""
    import numpy as np

    keys = np.multiply(weaks, np.uint32(mix), out=out)
    keys >>= 33 - len(filt).bit_length()
    return keys


def _scan_window(
    window: bytes, start: int, L: int, known: np.ndarray, filt: np.ndarray, work: _ScanWork
) -> list[int]:
    """Window starts whose weak checksum is in ``known``.

    ``window`` holds target bytes ``[start, stop + L - 1)`` for the
    starts ``[start, stop)``, and offsets are local to it.  Candidates
    pass both probes of the membership table ``filt`` (see
    :func:`_weak_filter`), the second only for the first's survivors,
    and then an exact lookup in the sorted array ``known``.  The
    whole-window arrays are those of ``work`` (see :class:`_ScanWork`).
    """
    import numpy as np

    first, second = WEAK_MIXES
    weaks = _window_weaks(window, L, work)
    n = len(weaks)
    slots = _filter_slots(weaks, filt, first, out=work.free[:n])
    # take buffers ``out`` in its default mode, to undo a failed range
    # check; every slot is in range, so wrapping changes nothing.
    hits = np.flatnonzero(filt.take(slots, out=work.mask[:n], mode="wrap"))
    hit_weaks = weaks[hits]
    passed = filt.take(_filter_slots(hit_weaks, filt, second))
    hits, hit_weaks = hits[passed], hit_weaks[passed]
    slots = np.minimum(np.searchsorted(known, hit_weaks), len(known) - 1)
    return (hits[known[slots] == hit_weaks] + start).tolist()


def _first_window(L: int) -> int:
    """Starts in the first scan window after a match, for blocks of
    ``L`` bytes: the next match is usually a few blocks away."""
    return 4 * L


class _ForwardReader:
    """A source read once, front to back, ``READ_CHUNK`` bytes at a time.

    :meth:`get` is its one way to read bytes back: a view of the piece
    that holds them, or a join across pieces.  Digests each piece as it
    reads it.  Pieces that end at or before ``keep`` are dropped when
    the next piece is read; the caller keeps ``keep`` at the first
    offset it will still ask for.
    """

    def __init__(self, source: Source):
        self.length, self._read = source
        self.keep = 0
        self._chunk = READ_CHUNK
        self._held: list[memoryview] = []
        self._first = 0  # index of the first held piece
        self._end = 0  # bytes read so far
        self._digest = hashlib.sha256()

    def _fill(self, stop: int) -> None:
        drop = self.keep // self._chunk - self._first
        if drop > 0:
            del self._held[:drop]
            self._first += drop
        while self._end < stop:
            end = min(self._end + self._chunk, self.length)
            piece = self._read(self._end, end)
            self._digest.update(piece)
            self._held.append(memoryview(piece))
            self._end = end

    def get(self, start: int, stop: int) -> bytes | memoryview:
        """Bytes ``[start, stop)``, with ``keep <= start < stop``: a view
        when one piece holds them."""
        if stop > self._end:
            self._fill(stop)
        c = self._chunk
        first = start // c
        base = first * c
        if stop <= base + c:
            return self._held[first - self._first][start - base:stop - base]
        last = (stop - 1) // c
        parts = self._held[first - self._first:last - self._first + 1]
        parts[0] = parts[0][start - base:]
        parts[-1] = parts[-1][:stop - last * c]
        return b"".join(parts)

    def views(self, start: int, stop: int) -> Iterator[memoryview]:
        """Bytes ``[start, stop)``, with ``keep <= start``, as views of
        the read pieces, front to back: one :meth:`get` per piece."""
        while start < stop:
            end = min(stop, (start // self._chunk + 1) * self._chunk)
            yield self.get(start, end)
            start = end

    def digest(self) -> bytes:
        """Digest of the whole source, reading what is left of it."""
        self._fill(self.length)
        return self._digest.digest()[:DIGEST_WIDTH]


def compute_delta(
    sig: FileSignature,
    target: bytes | Source,
    *,
    wire_ratio: float = 1.0,
    basis: Source | None = None,
) -> tuple[FileDelta, SyncStats]:
    """Delta that rebuilds ``target`` from any basis matching ``sig``.

    ``target`` is bytes, or a ``(length, read)`` source whose
    ``read(start, stop)`` returns bytes ``[start, stop)``; either way it
    is read forward once, ``READ_CHUNK`` bytes at a time, and the target
    digest is taken as it is read.

    Greedy longest-run matching: the scan takes the first target
    position whose window matches a full basis block by weak checksum
    and strong digest (earliest basis block wins when several match),
    and consecutive block matches merge into a single copy run.
    Unmatched bytes become literals, so the worst case is an
    all-literal delta.

    Wherever a copy run could continue (at the start, and right after
    each match) the window at the scan position is first looked up by
    strong digest alone, which skips the rolling scan for aligned
    matches; the short final basis block, which can only match the
    target's tail, is matched by strong digest alone too.  The ops are
    the same as a plain greedy scan's: equal digests mean equal bytes
    and so equal weak checksums, and the lookup keeps the earliest block
    per digest.  Otherwise the target is scanned one window of starts
    at a time (see :func:`_scan_window`): the first window after a
    match spans :func:`_first_window` starts, and each window that runs
    out without a match doubles the next, up to ``SCAN_WINDOW``.  How
    the starts are cut into windows does not change the ops, only how
    far past the next match the scan reads.

    The scan streams (see :func:`_scan`).  Without ``basis``, its
    literal pieces are collected into one :class:`LiteralOp` per run,
    and the delta's ops rebuild the target from any matching basis.
    With ``basis``, the receiver's basis as a source, the target is
    rebuilt from it as the scan goes and checked as :func:`apply_delta`
    checks it, raising the same errors; the delta returned then has no
    ops, since they are applied already, and no literal is ever held
    whole.  Either way, beyond the signature, working memory is
    O(``READ_CHUNK`` + ``SCAN_WINDOW`` + block size) for any file size,
    plus the collected ops; and the ops, charged alike, give the same
    ``SyncStats``.

    ``wire_ratio`` scales literal payloads on the wire to model
    compression; the reconstruction itself is always byte-exact.
    """
    if not 0 < wire_ratio < math.inf:
        raise ValueError(f"wire_ratio must be positive and finite, got {wire_ratio}")
    reader = _ForwardReader(target if isinstance(target, tuple) else _bytes_source(target))
    stats = SyncStats(wire_bytes=sig.wire_bytes + FILE_WIRE_OVERHEAD, scanned_bytes=reader.length)
    tokens = _scan(sig, reader, wire_ratio, stats)

    def made(ops: tuple[CopyOp | LiteralOp, ...] = ()) -> FileDelta:
        return FileDelta(block_size=sig.block_size, ops=ops, target_length=reader.length,
                         basis_digest=sig.content_digest, target_digest=reader.digest())

    if basis is None:
        return made(tuple(_collected(tokens))), stats
    for _ in _rebuilt(basis, sig.block_size, tokens, made):
        pass
    return made(), stats


def _scan(
    sig: FileSignature, reader: _ForwardReader, wire_ratio: float, stats: SyncStats
) -> Iterator[Token]:
    """The delta from ``sig`` to the target ``reader`` reads, as a stream
    (see :func:`compute_delta` for the scan).

    Tokens come as soon as the scan has passed them, after each scan
    window that finds no match and before each copy: a copy run once it
    closes, and literal bytes as views of the read pieces, which the
    reader then drops.  Each copy run is charged to ``stats`` when it
    opens, and each literal run once, when it closes.
    """
    import numpy as np

    L = sig.block_size
    n = reader.length
    read = reader.get

    # Only full-size blocks participate in the mid-stream scan; a short
    # final block is matched against the target tail afterwards.
    weaks = np.frombuffer(sig.weaks, dtype="<u4")
    full_blocks = sig.block_count
    short_len = sig.total_length % L
    if short_len and full_blocks:
        full_blocks -= 1
    # Each digest maps to its earliest block: dict() keeps the last
    # value it is given for a key, so the blocks go in back to front.
    digests = np.frombuffer(sig.strongs, dtype=f"V{DIGEST_WIDTH}", count=full_blocks).tolist()
    first_block = dict(zip(reversed(digests), range(full_blocks - 1, -1, -1)))

    run_first = run_count = 0  # the open copy run: blocks [run_first, run_first + run_count)
    # The open literal run is bytes [lit_start, pos); [lit_start, sent) of it are yielded.
    lit_start = sent = 0

    def copied(block: int) -> Iterator[Token]:
        """Add ``block`` to the open copy run, or else yield that run, if
        any, and open a new one with ``block``."""
        nonlocal run_first, run_count
        if run_count and run_first + run_count == block:
            run_count += 1
            return
        if run_count:
            yield CopyOp(first_block=run_first, block_count=run_count)
        run_first, run_count = block, 1
        stats.wire_bytes += COPY_OP_WIRE

    def passed(stop: int) -> Iterator[Token]:
        """The open copy run, then literal bytes [sent, stop): what the
        scan has passed up to ``stop``, where no later match can start."""
        nonlocal run_count, sent
        if run_count:
            yield CopyOp(first_block=run_first, block_count=run_count)
            run_count = 0
        yield from reader.views(sent, stop)
        sent = reader.keep = stop

    def close_literal(stop: int) -> None:
        charged = _charged_literal(stop - lit_start, wire_ratio)
        stats.literal_bytes += charged
        stats.wire_bytes += charged + LITERAL_OP_WIRE

    pos = 0
    last_start = n - L
    if first_block and last_start >= 0:
        known = np.unique(weaks[:full_blocks])
        filt = _weak_filter(known)
        work = _ScanWork()
        candidates: list[int] = []  # weak matches among the window's starts
        window_end = 0
        first_span = min(_first_window(L), SCAN_WINDOW)
        span = first_span  # starts in the next window
        while pos <= last_start:
            if pos == lit_start:
                j = first_block.get(strong_digest(read(pos, pos + L)))
                if j is not None:
                    yield from copied(j)
                    pos = lit_start = sent = reader.keep = pos + L
                    continue
            if pos >= window_end:
                window_end = min(pos + span, last_start + 1)
                candidates = _scan_window(
                    read(pos, window_end + L - 1), pos, L, known, filt, work)
            ci = bisect.bisect_left(candidates, pos)
            while ci < len(candidates):
                c = candidates[ci]
                j = first_block.get(strong_digest(read(c, c + L)))
                if j is not None:
                    break
                ci += 1
            else:
                pos = window_end
                span = min(2 * span, SCAN_WINDOW)
                yield from passed(pos)
                continue
            if lit_start < c:
                yield from passed(c)
                close_literal(c)
            yield from copied(j)
            pos = lit_start = sent = reader.keep = c + L
            span = first_span

    # Tail: the short final basis block can only match the very end of
    # the target, where the remaining bytes have exactly its length.  As
    # in the aligned check, equal digests mean equal bytes, so the strong
    # digest alone decides.
    if short_len and n - lit_start >= short_len:
        if strong_digest(read(n - short_len, n)) == sig.strongs[-DIGEST_WIDTH:]:
            if lit_start < n - short_len:
                yield from passed(n - short_len)
                close_literal(n - short_len)
            yield from copied(full_blocks)
            lit_start = sent = n
    yield from passed(n)
    if lit_start < n:
        close_literal(n)


def _collected(tokens: Iterable[Token]) -> Iterator[CopyOp | LiteralOp]:
    """A delta's ops from its stream: each literal run, joined, is one op."""
    literal: list[bytes | memoryview] = []
    for token in tokens:
        if isinstance(token, CopyOp):
            if literal:
                yield LiteralOp(data=b"".join(literal))
                literal = []
            yield token
        else:
            literal.append(token)
    if literal:
        yield LiteralOp(data=b"".join(literal))


def _rebuilt(
    basis: Source, block_size: int, tokens: Iterable[Token], delta: Callable[[], FileDelta]
) -> Iterator[bytes | memoryview]:
    """The target a delta's stream rebuilds from ``basis``: pieces of at
    most ``READ_CHUNK`` bytes copied from the basis, and the literal
    pieces as they come.

    The basis is digested front to back as the copies read it, and the
    gaps between them are read for the digest alone, so a basis whose
    copies come in order is read once.  Each copy's block range is
    checked before its pieces; after the last piece come the checks of
    the basis digest, the length and the target digest against
    ``delta()``, which is called only once the stream has ended.
    """
    length, read = basis
    L = block_size
    n_blocks = math.ceil(length / L)
    content = hashlib.sha256()
    digested = 0  # basis bytes [0, digested) are in ``content``

    def basis_reads(start: int, stop: int) -> Iterator[bytes]:
        nonlocal digested
        for s in range(digested, start, READ_CHUNK):
            content.update(read(s, min(s + READ_CHUNK, start)))
        digested = max(digested, start)
        for s in range(start, stop, READ_CHUNK):
            e = min(s + READ_CHUNK, stop)
            piece = read(s, e)
            if e > digested:
                content.update(memoryview(piece)[digested - s:])
                digested = e
            yield piece

    rebuilt = hashlib.sha256()
    size = 0
    for token in tokens:
        if isinstance(token, CopyOp):
            if (token.first_block < 0 or token.block_count < 1
                    or token.first_block + token.block_count > n_blocks):
                raise CorruptDeltaError(
                    f"copy of blocks [{token.first_block}, {token.first_block + token.block_count}) "
                    f"outside basis with {n_blocks} blocks"
                )
            start = token.first_block * L
            pieces = basis_reads(start, min(start + token.block_count * L, length))
        else:
            pieces = (token,)
        for piece in pieces:
            rebuilt.update(piece)
            size += len(piece)
            yield piece
    for _ in basis_reads(length, length):
        pass
    expected = delta()
    if content.digest()[:DIGEST_WIDTH] != expected.basis_digest:
        raise BasisMismatchError("basis digest does not match delta.basis_digest")
    if size != expected.target_length:
        raise CorruptDeltaError(f"reconstructed {size} bytes, delta declares {expected.target_length}")
    if rebuilt.digest()[:DIGEST_WIDTH] != expected.target_digest:
        raise CorruptDeltaError("rebuilt bytes do not match delta.target_digest")


def apply_delta(basis: bytes, delta: FileDelta) -> bytes:
    """Reconstruct the target from ``basis``.

    Raises :class:`BasisMismatchError` if ``basis`` is not the file the
    delta was computed against, and :class:`CorruptDeltaError` if the
    delta references blocks outside the basis, or the rebuilt bytes have
    the wrong length or do not match ``delta.target_digest``.
    """
    tokens = (op if isinstance(op, CopyOp) else op.data for op in delta.ops)
    # Copies are views into the basis, so the target is built once, by the join.
    return b"".join(_rebuilt(_bytes_source(basis), delta.block_size, tokens, lambda: delta))


# --- tree-level synchronization -------------------------------------------


@dataclass(frozen=True)
class Patched:
    """A file the sender scanned and the receiver rebuilt from ``basis``,
    its entry, and verified as it went: ``delta`` holds the checked
    digests and length, and no ops, which were applied during the
    scan.  Adopting ``target`` finishes the patch."""

    delta: FileDelta
    basis: ContentDescriptor
    target: ContentDescriptor


@dataclass(frozen=True)
class Deleted:
    pass


@dataclass(frozen=True)
class TreeDelta:
    """What a receiver must change to turn its basis into the target.

    ``entries`` holds one ``(path, op)`` pair per patched or deleted
    file: a :class:`Patched` or a :class:`Deleted`.  A patched file was
    rebuilt and verified during :func:`sync_tree`, so the delta carries
    none of its bytes, only the basis entry it was verified against and
    the target entry to adopt.  ``created`` holds
    the target's entry for every file the basis lacks, as a tree: a
    group the basis lacks whole is the target's group itself, shared by
    reference, and the files created in a group the basis partly holds
    make one new group.  An unchanged file is in neither.

    The entries follow :func:`sync_tree`'s walk of the target, in path
    order, followed by the deletions, in path order; nothing depends on
    that order.
    """

    entries: tuple[tuple[str, Patched | Deleted], ...]
    created: FileTree


_DELETED = Deleted()
_NOTHING: dict = {}
_LENGTH = attrgetter("length")
_WIRE_RATIO = attrgetter("wire_ratio")


def _charge_unchanged(stats: SyncStats, count: int, length: int, verified: bool) -> None:
    """Charge ``count`` unchanged files of ``length`` bytes in all: each
    its file overhead and, when ``verified``, a whole-file checksum on
    the wire after a full read."""
    stats.files_unchanged += count
    stats.wire_bytes += (FILE_WIRE_OVERHEAD + VERIFY_WIRE * verified) * count
    if verified:
        stats.scanned_bytes += length


def _charge_created(stats: SyncStats, targets: Collection[ContentDescriptor]) -> None:
    """Charge the creation of files with descriptors ``targets``: each
    its file overhead, one literal op and its whole compressed content."""
    lengths = list(map(_LENGTH, targets))
    charged = sum(map(_charged_literal, lengths, map(_WIRE_RATIO, targets)))
    stats.files_created += len(lengths)
    stats.wire_bytes += (FILE_WIRE_OVERHEAD + LITERAL_OP_WIRE) * len(lengths) + charged
    stats.literal_bytes += charged
    stats.scanned_bytes += sum(lengths)


def sync_tree(
    basis: FileTree,
    target: FileTree,
    block_size: int = DEFAULT_BLOCK_SIZE,
    *,
    verify_unchanged: bool = False,
) -> tuple[TreeDelta, SyncStats]:
    """Classify every path as unchanged, patched, created or deleted,
    and list the ones to change.

    The walk goes over the target's groups (see :class:`FileTree`) and
    looks each up in the basis.  A group the basis holds as the same
    object, or as an equal dict, is unchanged file for file, and is
    charged in bulk from its file count and cached total length; a
    group the basis lacks is created file for file, goes into the
    delta's ``created`` tree as it is, and is charged from its
    descriptors at C speed.  Both charges equal those of the files one
    by one.  Only the other groups are walked file by file, looking
    each path up in the basis's group of the same key.

    Files whose descriptors are identical (the same object, or equal
    fields) are skipped by the metadata quick check; with
    ``verify_unchanged`` they are additionally charged a full read plus
    a whole-file checksum on the wire, which models a sync engine that
    cannot trust metadata (VM image trees).  Every other file present
    on both sides goes through :func:`compute_signature` and
    :func:`compute_delta` for real, rendered about ``READ_CHUNK`` bytes
    at a time, so no file is ever rendered whole: the basis for its
    signature, the target once, for the scan, and the basis again as
    the receiver rebuilds the target from it while the scan streams.  A
    file whose delta's target digest and length equal its signature's
    content digest and total length has equal bytes: it is charged as
    unchanged and verified, and gets no entry.  Any other is patched,
    and its entry carries no literal bytes.

    As rsync's sender names only the files that need an update, the
    delta holds the created, patched and deleted paths (see
    :class:`TreeDelta`); ``stats`` counts the unchanged ones.  The basis
    is walked only when it holds a path the target lacks, which the
    counts tell.
    """
    stats = SyncStats()
    entries: list[tuple[str, Patched | Deleted]] = []
    created_groups: dict[str, TreeGroup] = {}
    for key, group in target.groups():
        held = basis.group(key)
        if held is group or held == group:
            _charge_unchanged(stats, len(group), group.length, verify_unchanged)
            continue
        if held is None:  # the basis lacks the whole group
            created_groups[key] = group
            _charge_created(stats, group.values())
            continue
        created = TreeGroup()
        for path, t in group.items():
            b = held.get(path)
            if b is None:
                created[path] = t
                continue
            if b is t or b == t:
                _charge_unchanged(stats, 1, t.length, verify_unchanged)
                continue
            basis_source = _entry_source(path, b)
            sig = compute_signature(basis_source, block_size)
            delta, fstats = compute_delta(sig, _entry_source(path, t), wire_ratio=t.wire_ratio,
                                          basis=basis_source)
            if (delta.target_length, delta.target_digest) == (sig.total_length, sig.content_digest):
                _charge_unchanged(stats, 1, t.length, verified=True)
                continue
            entries.append((path, Patched(delta=delta, basis=b, target=t)))
            stats.files_patched += 1
            stats.merge(fstats)
        if created:
            created_groups[key] = created
            _charge_created(stats, created.values())
    stats.files_deleted = len(basis) + stats.files_created - len(target)
    if stats.files_deleted:
        stats.wire_bytes += FILE_WIRE_OVERHEAD * stats.files_deleted
        for key, held in basis.groups():
            group = target.group(key) or _NOTHING
            if held is not group:
                entries += [(path, _DELETED) for path in held if path not in group]
    delta = TreeDelta(tuple(entries), FileTree._of(created_groups))
    return delta, stats


def apply_tree_delta(basis: FileTree, delta: TreeDelta) -> FileTree:
    """Apply a tree delta to the basis it was made from.

    Every patched file was rebuilt from its basis entry and verified
    during :func:`sync_tree` (see :class:`Patched`), so its target is
    adopted without rendering a byte, once the basis holds, at its
    path, the entry the patch was verified against; any other entry
    raises :class:`BasisMismatchError`.  The created files are added
    last, by :meth:`FileTree.with_entries` of the ``created`` tree, so a
    group the basis lacked is adopted by reference, not copied.
    """
    deleted: list[str] = []
    patched: dict[str, ContentDescriptor] = {}
    for path, op in delta.entries:
        if isinstance(op, Deleted):
            deleted.append(path)
            continue
        held = basis.get(path)
        if held is not op.basis and held != op.basis:
            raise BasisMismatchError(f"patch for {path!r} was verified against another basis")
        patched[path] = op.target
    return basis.without(deleted).with_entries(patched).with_entries(delta.created)
