"""Block-based incremental file synchronization.

The sender holds a *target* file, the receiver holds a *basis*.  The
receiver computes a :class:`FileSignature` of its basis (a weak rolling
checksum plus a strong digest per block) and ships it to the sender; the
sender scans the target against the signature and produces a
:class:`FileDelta` of copy/literal instructions that reconstructs the
target exactly from the basis.  :func:`sync_tree` lifts the same scheme
to whole file trees.

The engine works in bounded memory.  Signatures take the weak checksums
of full blocks a slice of rows at a time; the delta scan computes the
weak checksum of every window start one scan window (``SCAN_WINDOW``
starts) at a time, in uint32 with window-local offsets, which is exact
because 2^16 divides 2^32.  Wherever a copy run could continue, the
block at the scan position is first looked up by strong digest alone,
so aligned matches skip the rolling scan.  Beyond the signature and
the literal output, working memory is O(``SCAN_WINDOW`` + block size),
whatever the file size.  Every delta carries the digest of its target,
and :func:`apply_delta` checks the rebuilt bytes against it.

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
from dataclasses import dataclass

import numpy as np

from .layer_store import ContentDescriptor, FileTree, materialize_entry

WEAK_MOD = 1 << 16
DIGEST_WIDTH = 16  # blake2b-128, fixed everywhere
MIN_BLOCK_SIZE = 16
DEFAULT_BLOCK_SIZE = 2048

SIG_BYTES_PER_BLOCK = 4 + DIGEST_WIDTH
COPY_OP_WIRE = 9
LITERAL_OP_WIRE = 5
FILE_WIRE_OVERHEAD = 64
VERIFY_WIRE = DIGEST_WIDTH  # whole-file checksum for forced re-verification

# Window starts per delta-scan window, and bytes per signature slice.
# Small windows win: a window opens where an aligned check fails, and
# the aligned matches that follow skip the rest of it, so a larger
# window computes more weaks the scan never reads.
SCAN_WINDOW = 1 << 16
# Low weak bits of the first-stage membership filter in the scan.
FILTER_BITS = 20


class DeltaSyncError(Exception):
    """Base class for synchronization failures."""


class BasisMismatchError(DeltaSyncError):
    """The basis handed to apply_delta is not the one the delta was made for."""


class CorruptDeltaError(DeltaSyncError):
    """A delta references blocks outside the basis, has a bad length, or
    rebuilds bytes that do not match its target digest."""


def strong_digest(data: bytes) -> bytes:
    """128-bit collision-resistant digest used for blocks and whole files."""
    return hashlib.blake2b(data, digest_size=DIGEST_WIDTH).digest()


def weak_checksum(block: bytes) -> tuple[int, int]:
    """Two-component rolling checksum of one block.

    For block bytes X[k..l]: a = sum(X) mod 2^16 and
    b = sum((l - i + 1) * X[i]) mod 2^16.  The combined value is
    ``a + 2^16 * b``.
    """
    a = 0
    b = 0
    n = len(block)
    for i, x in enumerate(block):
        a += x
        b += (n - i) * x
    return a % WEAK_MOD, b % WEAK_MOD


def weak_roll(a: int, b: int, out_byte: int, in_byte: int, window: int) -> tuple[int, int]:
    """O(1) update of (a, b) when the window slides forward one byte."""
    a2 = (a - out_byte + in_byte) % WEAK_MOD
    b2 = (b - window * out_byte + a2) % WEAK_MOD
    return a2, b2


def combine_weak(a: int, b: int) -> int:
    return a + (b << 16)


@dataclass(frozen=True)
class BlockSignature:
    weak: int
    strong: bytes


@dataclass(frozen=True)
class FileSignature:
    """Per-block checksums of a basis, plus a whole-content digest."""

    block_size: int
    blocks: tuple[BlockSignature, ...]
    total_length: int
    content_digest: bytes

    @property
    def wire_bytes(self) -> int:
        return len(self.blocks) * SIG_BYTES_PER_BLOCK

    def block_length(self, index: int) -> int:
        if index == len(self.blocks) - 1:
            rem = self.total_length - index * self.block_size
            return rem
        return self.block_size


@dataclass(frozen=True)
class CopyOp:
    """Copy ``block_count`` consecutive basis blocks starting at ``first_block``."""

    first_block: int
    block_count: int


@dataclass(frozen=True)
class LiteralOp:
    data: bytes


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
        self.wire_bytes += other.wire_bytes
        self.literal_bytes += other.literal_bytes
        self.scanned_bytes += other.scanned_bytes
        self.files_unchanged += other.files_unchanged
        self.files_patched += other.files_patched
        self.files_created += other.files_created
        self.files_deleted += other.files_deleted


def compute_signature(data: bytes, block_size: int = DEFAULT_BLOCK_SIZE) -> FileSignature:
    """Signature of ``data``: one (weak, strong) pair per block.

    The last block may be short.  Deterministic: same bytes and block
    size always give a bit-identical signature.
    """
    if block_size < MIN_BLOCK_SIZE:
        raise ValueError(f"block_size must be >= {MIN_BLOCK_SIZE}, got {block_size}")
    L = block_size
    view = memoryview(data)
    blocks = []
    n_full = len(data) // L
    if n_full:
        # Full blocks as rows, a bounded slice of rows at a time: a is
        # the row sum and b the row dot product with weights L..1.
        rows = np.frombuffer(data, dtype=np.uint8, count=n_full * L).reshape(n_full, L)
        weights = np.arange(L, 0, -1, dtype=np.uint32)
        step = max(1, SCAN_WINDOW // L)
        for first in range(0, n_full, step):
            chunk = rows[first:first + step]
            a = chunk.sum(axis=1, dtype=np.uint32) & 0xFFFF
            b = (chunk @ weights) & 0xFFFF
            for i, weak in enumerate((a | (b << 16)).tolist(), first):
                blocks.append(BlockSignature(weak=weak, strong=strong_digest(view[i * L:(i + 1) * L])))
    if len(data) % L:
        tail = view[n_full * L:]
        a, b = weak_checksum(tail)
        blocks.append(BlockSignature(weak=combine_weak(a, b), strong=strong_digest(tail)))
    return FileSignature(
        block_size=block_size,
        blocks=tuple(blocks),
        total_length=len(data),
        content_digest=strong_digest(data),
    )


def _charged_literal(length: int, wire_ratio: float) -> int:
    return math.ceil(length * wire_ratio)


def _scan_window(
    target: bytes, start: int, stop: int, L: int, known: np.ndarray, filt: np.ndarray
) -> list[int]:
    """Window starts in ``[start, stop)`` whose weak checksum is in ``known``.

    Reads target bytes ``[start, stop + L - 1)`` only, with offsets
    local to the window.  With ``P`` the prefix sums of the bytes and
    ``S`` those of ``P``, the window at ``i`` has ``a = P[i+L] - P[i]``
    and ``b = S[i+L] - S[i] - L * P[i]``, since each byte ``x[t]`` is
    counted once per ``k`` in ``t < k <= i+L``.  The sums wrap in uint32,
    which is exact because 2^16 divides 2^32.  Candidates pass the
    low-bit membership filter ``filt`` and then an exact lookup in the
    sorted array ``known``.
    """
    x = np.frombuffer(target, dtype=np.uint8, count=stop - start + L - 1, offset=start)
    P = np.zeros(len(x) + 1, dtype=np.uint32)
    np.cumsum(x, dtype=np.uint32, out=P[1:])
    S = np.cumsum(P, dtype=np.uint32)
    a = P[L:] - P[:-L]
    b = S[L:] - S[:-L] - P[:-L] * np.uint32(L)
    weaks = (a & 0xFFFF) | (b << 16)
    hits = np.flatnonzero(filt[weaks & ((1 << FILTER_BITS) - 1)])
    hit_weaks = weaks[hits]
    slots = np.minimum(np.searchsorted(known, hit_weaks), len(known) - 1)
    return (hits[known[slots] == hit_weaks] + start).tolist()


def compute_delta(
    sig: FileSignature,
    target: bytes,
    *,
    wire_ratio: float = 1.0,
) -> tuple[FileDelta, SyncStats]:
    """Delta that rebuilds ``target`` from any basis matching ``sig``.

    Greedy longest-run matching: the scan takes the first target
    position whose window matches a full basis block by weak checksum
    and strong digest (earliest basis block wins when several match),
    and consecutive block matches merge into a single copy run.
    Unmatched bytes become literals, so the worst case is an
    all-literal delta.

    Wherever a copy run could continue (at the start, and right after
    each match) the window at the scan position is first looked up by
    strong digest alone, which skips the rolling scan for aligned
    matches.  The ops are the same as a plain greedy scan's: equal
    digests mean equal bytes and so equal weak checksums, and the
    lookup keeps the earliest block per digest.  Otherwise the target is
    scanned one window of ``SCAN_WINDOW`` starts at a time (see
    :func:`_scan_window`), so beyond the signature and the literal
    output, working memory is O(``SCAN_WINDOW`` + block size) for any
    file size.

    ``wire_ratio`` scales literal payloads on the wire to model
    compression; the reconstruction itself is always byte-exact.
    """
    if wire_ratio <= 0:
        raise ValueError("wire_ratio must be positive")
    L = sig.block_size
    n = len(target)
    view = memoryview(target)
    ops: list[CopyOp | LiteralOp] = []
    stats = SyncStats(wire_bytes=sig.wire_bytes + FILE_WIRE_OVERHEAD, scanned_bytes=n)

    # Only full-size blocks participate in the mid-stream scan; a short
    # final block is matched against the target tail afterwards.
    full_blocks = len(sig.blocks)
    short_len = sig.total_length % L
    if short_len and sig.blocks:
        full_blocks -= 1
    first_block: dict[bytes, int] = {}
    for i in range(full_blocks):
        first_block.setdefault(sig.blocks[i].strong, i)

    def emit_literal(chunk: bytes) -> None:
        ops.append(LiteralOp(data=chunk))
        charged = _charged_literal(len(chunk), wire_ratio)
        stats.literal_bytes += charged
        stats.wire_bytes += charged + LITERAL_OP_WIRE

    def emit_copy(first: int, count: int) -> None:
        last = ops[-1] if ops else None
        if isinstance(last, CopyOp) and last.first_block + last.block_count == first:
            ops[-1] = CopyOp(first_block=last.first_block, block_count=last.block_count + count)
        else:
            ops.append(CopyOp(first_block=first, block_count=count))
            stats.wire_bytes += COPY_OP_WIRE

    pos = 0
    lit_start = 0
    last_start = n - L
    if first_block and last_start >= 0:
        known = np.unique(np.fromiter(
            (sig.blocks[i].weak for i in range(full_blocks)), dtype=np.uint32, count=full_blocks))
        filt = np.zeros(1 << FILTER_BITS, dtype=bool)
        filt[known & ((1 << FILTER_BITS) - 1)] = True
        candidates: list[int] = []  # weak matches among the window's starts
        window_end = 0
        while pos <= last_start:
            if pos == lit_start:
                j = first_block.get(strong_digest(view[pos:pos + L]))
                if j is not None:
                    emit_copy(j, 1)
                    pos = lit_start = pos + L
                    continue
            if pos >= window_end:
                window_end = min(pos + SCAN_WINDOW, last_start + 1)
                candidates = _scan_window(target, pos, window_end, L, known, filt)
            ci = bisect.bisect_left(candidates, pos)
            while ci < len(candidates):
                c = candidates[ci]
                j = first_block.get(strong_digest(view[c:c + L]))
                if j is not None:
                    break
                ci += 1
            else:
                pos = window_end
                continue
            if lit_start < c:
                emit_literal(target[lit_start:c])
            emit_copy(j, 1)
            pos = lit_start = c + L

    # Tail: the short final basis block can only match the very end of
    # the target, where the remaining bytes have exactly its length.
    tail_done = False
    if short_len and n - lit_start >= short_len:
        tail = target[n - short_len:]
        last = sig.blocks[-1]
        if combine_weak(*weak_checksum(tail)) == last.weak and strong_digest(tail) == last.strong:
            if lit_start < n - short_len:
                emit_literal(target[lit_start:n - short_len])
            emit_copy(len(sig.blocks) - 1, 1)
            tail_done = True
    if not tail_done and lit_start < n:
        emit_literal(target[lit_start:])

    delta = FileDelta(
        block_size=L,
        ops=tuple(ops),
        target_length=n,
        basis_digest=sig.content_digest,
        target_digest=strong_digest(target),
    )
    return delta, stats


def apply_delta(basis: bytes, delta: FileDelta) -> bytes:
    """Reconstruct the target from ``basis``.

    Raises :class:`BasisMismatchError` if ``basis`` is not the file the
    delta was computed against, and :class:`CorruptDeltaError` if the
    delta references blocks outside the basis, or the rebuilt bytes have
    the wrong length or do not match ``delta.target_digest``.
    """
    if strong_digest(basis) != delta.basis_digest:
        raise BasisMismatchError("basis digest does not match delta.basis_digest")
    L = delta.block_size
    n_blocks = math.ceil(len(basis) / L)
    # Copies are views into the basis, so the target is built once, by the join.
    view = memoryview(basis)
    parts = []
    for op in delta.ops:
        if isinstance(op, LiteralOp):
            parts.append(op.data)
        else:
            if op.first_block < 0 or op.block_count < 1 or op.first_block + op.block_count > n_blocks:
                raise CorruptDeltaError(
                    f"copy of blocks [{op.first_block}, {op.first_block + op.block_count}) "
                    f"outside basis with {n_blocks} blocks"
                )
            start = op.first_block * L
            end = min(start + op.block_count * L, len(basis))
            parts.append(view[start:end])
    out = b"".join(parts)
    if len(out) != delta.target_length:
        raise CorruptDeltaError(
            f"reconstructed {len(out)} bytes, delta declares {delta.target_length}"
        )
    if strong_digest(out) != delta.target_digest:
        raise CorruptDeltaError("rebuilt bytes do not match delta.target_digest")
    return out


# --- tree-level synchronization -------------------------------------------


@dataclass(frozen=True)
class Unchanged:
    pass


@dataclass(frozen=True)
class Patched:
    delta: FileDelta
    target: ContentDescriptor


@dataclass(frozen=True)
class Created:
    target: ContentDescriptor


@dataclass(frozen=True)
class Deleted:
    pass


FileOp = Unchanged | Patched | Created | Deleted


@dataclass(frozen=True)
class TreeDelta:
    block_size: int
    entries: tuple[tuple[str, FileOp], ...]  # sorted by path


def sync_tree(
    basis: FileTree,
    target: FileTree,
    block_size: int = DEFAULT_BLOCK_SIZE,
    *,
    verify_unchanged: bool = False,
) -> tuple[TreeDelta, SyncStats]:
    """Classify every path as unchanged, patched, created or deleted.

    Files whose descriptors are identical are skipped by the metadata
    quick check; with ``verify_unchanged`` they are additionally charged
    a full read plus a whole-file checksum on the wire, which models a
    sync engine that cannot trust metadata (VM image trees).  Content
    that differs goes through :func:`compute_delta` for real.
    """
    stats = SyncStats()
    entries: list[tuple[str, FileOp]] = []
    paths = sorted(set(basis.paths()) | set(target.paths()))
    for path in paths:
        b = basis.get(path)
        t = target.get(path)
        if t is None:
            entries.append((path, Deleted()))
            stats.files_deleted += 1
            stats.wire_bytes += FILE_WIRE_OVERHEAD
            continue
        if b is None:
            entries.append((path, Created(target=t)))
            stats.files_created += 1
            charged = _charged_literal(t.length, t.wire_ratio)
            stats.wire_bytes += FILE_WIRE_OVERHEAD + charged + LITERAL_OP_WIRE
            stats.literal_bytes += charged
            stats.scanned_bytes += t.length
            continue
        if b == t:
            entries.append((path, Unchanged()))
            stats.files_unchanged += 1
            stats.wire_bytes += FILE_WIRE_OVERHEAD
            if verify_unchanged:
                stats.wire_bytes += VERIFY_WIRE
                stats.scanned_bytes += t.length
            continue
        basis_bytes = materialize_entry(path, b)
        target_bytes = materialize_entry(path, t)
        if basis_bytes == target_bytes:
            entries.append((path, Unchanged()))
            stats.files_unchanged += 1
            stats.wire_bytes += FILE_WIRE_OVERHEAD + VERIFY_WIRE
            stats.scanned_bytes += t.length
            continue
        sig = compute_signature(basis_bytes, block_size)
        delta, fstats = compute_delta(sig, target_bytes, wire_ratio=t.wire_ratio)
        entries.append((path, Patched(delta=delta, target=t)))
        stats.files_patched += 1
        stats.merge(fstats)
    return TreeDelta(block_size=block_size, entries=tuple(entries)), stats


def apply_tree_delta(basis: FileTree, delta: TreeDelta) -> FileTree:
    """Apply a tree delta, verifying every patched file.

    Patched entries replay the real :func:`apply_delta` against the
    basis bytes, which checks the rebuilt bytes against the delta's
    target digest before the target is adopted; a mismatch raises
    :class:`CorruptDeltaError`.
    """
    out = dict(basis.items())
    for path, op in delta.entries:
        if isinstance(op, Unchanged):
            continue
        if isinstance(op, Deleted):
            out.pop(path, None)
        elif isinstance(op, Created):
            out[path] = op.target
        else:
            basis_entry = out.get(path)
            if basis_entry is None:
                raise CorruptDeltaError(f"patch for {path!r} but basis has no such file")
            apply_delta(materialize_entry(path, basis_entry), op.delta)
            out[path] = op.target
    return FileTree(out)
