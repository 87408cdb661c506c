import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layermig import delta_sync
from layermig.delta_sync import (
    COPY_OP_WIRE,
    DIGEST_WIDTH,
    FILE_WIRE_OVERHEAD,
    LITERAL_OP_WIRE,
    MAX_BLOCK_SIZE,
    MIN_BLOCK_SIZE,
    SIG_BYTES_PER_BLOCK,
    BasisMismatchError,
    CopyOp,
    CorruptDeltaError,
    Deleted,
    FileDelta,
    FileSignature,
    LiteralOp,
    Patched,
    SyncStats,
    apply_delta,
    apply_tree_delta,
    compute_delta,
    compute_signature,
    strong_digest,
    sync_tree,
)
from layermig.layer_store import (
    FileTree,
    LiteralContent,
    SyntheticContent,
    advance_memory,
    new_memory_image,
    serialize_memory,
)
from oracles import block_length, combine_weak, materialize, traced_peak, weak_checksum, weak_roll


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


# --- signatures ---------------------------------------------------------------


def test_signature_of_empty_data():
    sig = compute_signature(b"", 1024)
    assert (sig.weaks, sig.strongs, sig.block_count) == (b"", b"", 0)
    assert sig.total_length == 0


def test_signature_block_ceiling():
    data = rng(1).bytes(2048)
    assert compute_signature(data, 1024).block_count == 2
    sig = compute_signature(data + b"x", 1024)
    assert sig.block_count == 3
    assert (len(sig.weaks), len(sig.strongs)) == (3 * 4, 3 * DIGEST_WIDTH)
    assert block_length(sig, 2) == 1


def test_signature_rejects_tiny_block_size():
    with pytest.raises(ValueError):
        compute_signature(b"abc", 0)
    with pytest.raises(ValueError):
        compute_signature(b"abc", 8)


def test_signature_sums_are_exact_up_to_the_largest_block_size():
    # All-0xFF bytes give a block's largest sums, a = 255 * L and
    # b = 255 * L * (L + 1) / 2, which the signature keeps in uint16
    # (mod 2^16).  MAX_BLOCK_SIZE = 2^23 bounds one block's working
    # memory, so a block one byte longer is refused.
    L = MAX_BLOCK_SIZE
    sig = compute_signature(b"\xff" * L, L)
    a, b = 255 * L % 2**16, 255 * L * (L + 1) // 2 % 2**16
    assert np.frombuffer(sig.weaks, dtype="<u4").tolist() == [combine_weak(a, b)]
    with pytest.raises(ValueError):
        compute_signature(b"abc", L + 1)


def test_signature_deterministic():
    data = rng(2).bytes(10_000)
    assert compute_signature(data, 2048) == compute_signature(data, 2048)


def test_rolling_update_matches_recomputation():
    # Oracle: recompute the checksum of each shifted window from scratch.
    g = rng(3)
    data = g.bytes(3000)
    window = 64
    for _ in range(1000):
        start = int(g.integers(0, len(data) - window - 1))
        a, b = weak_checksum(data[start:start + window])
        rolled = weak_roll(a, b, data[start], data[start + window], window)
        direct = weak_checksum(data[start + 1:start + 1 + window])
        assert rolled == direct


def test_vectorized_signature_weaks_match_reference():
    data = rng(4).bytes(5000)
    sig = compute_signature(data, 512)
    weaks = np.frombuffer(sig.weaks, dtype="<u4").tolist()
    assert len(weaks) == sig.block_count == 10  # the last block is short
    for i, weak in enumerate(weaks):
        block = data[i * 512:(i + 1) * 512]
        assert weak == combine_weak(*weak_checksum(block))
        assert sig.strongs[i * DIGEST_WIDTH:(i + 1) * DIGEST_WIDTH] == strong_digest(block)


@settings(max_examples=200, deadline=None)
@given(block=st.binary(max_size=5000) | st.builds(lambda n: b"\xff" * n, st.integers(0, 70_000)))
def test_one_block_signature_weak_matches_byte_loop(block):
    # A block shorter than MIN_BLOCK_SIZE is a signature's short last
    # block, summed as one row of its own length.
    sig = compute_signature(block, max(MIN_BLOCK_SIZE, len(block)))
    expected = [combine_weak(*weak_checksum(block))] if block else []
    assert np.frombuffer(sig.weaks, dtype="<u4").tolist() == expected
    assert sig.strongs == (strong_digest(block) if block else b"")


@settings(max_examples=60, deadline=None)
@given(
    L=st.sampled_from([16, 17, 700, 2048, 65537]),
    fill=st.sampled_from(["random", "ff"]),
    starts=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_weaks_match_the_byte_loop_at_every_start(L, fill, starts, seed):
    # Block sizes with one set bit below the top (17, 65537), several
    # (700) and none (16, 2048); above 2^16, the weights (L, ..., 1)
    # wrap, and all-0xFF bytes give the largest sums.  The byte loop
    # costs L steps per start, so long blocks get fewer starts.
    starts = min(starts, max(1, 400_000 // L))
    n = starts + L - 1
    window = b"\xff" * n if fill == "ff" else rng(seed).bytes(n)
    # A scan's windows share their arrays: run a longer window in them first.
    work = delta_sync._ScanWork()
    delta_sync._window_weaks(rng(seed + 1).bytes(n + 9), L, work)
    weaks = delta_sync._window_weaks(window, L, work)
    assert weaks.tolist() == [combine_weak(*weak_checksum(window[i:i + L]))
                              for i in range(starts)]


def test_signature_weaks_match_the_byte_loop_above_2_16():
    # A block size above 2^16 that is not a power of two: its weights
    # wrap mod 2^16, and the last block is short.
    L = 3 * 2**15 + 7
    data = rng(62).bytes(2 * L + 1234)
    sig = compute_signature(data, L)
    blocks = [data[i:i + L] for i in range(0, len(data), L)]
    assert np.frombuffer(sig.weaks, dtype="<u4").tolist() == [
        combine_weak(*weak_checksum(block)) for block in blocks]
    assert sig.strongs == b"".join(map(strong_digest, blocks))


def test_signature_retains_at_most_24_bytes_per_block():
    # The columns hold 4 + DIGEST_WIDTH = 20 bytes per block; a tuple of
    # per-block objects held about 176.
    data = rng(61).bytes(8 * 2**20)
    tracemalloc.start()
    try:
        sig = compute_signature(data)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sig.block_count == 4096
    assert retained <= 24 * sig.block_count


def test_strong_digest_is_truncated_sha256():
    # Known answer: SHA-256("abc") is ba7816bf8f01cfea414140de5dae2223b003...
    assert strong_digest(b"abc") == bytes.fromhex("ba7816bf8f01cfea414140de5dae2223")
    assert strong_digest(b"abc") == hashlib.sha256(b"abc").digest()[:16]


def ranged(data: bytes):
    """``data`` as a ``(length, read)`` source."""
    return len(data), lambda start, stop: data[start:stop]


def signature_by_block(basis: bytes, L: int) -> FileSignature:
    """The signature of ``basis`` made one block at a time."""
    blocks = [basis[i:i + L] for i in range(0, len(basis), L)]
    weaks = b"".join(combine_weak(*weak_checksum(block)).to_bytes(4, "little") for block in blocks)
    return FileSignature(L, weaks, b"".join(map(strong_digest, blocks)), len(basis),
                         strong_digest(basis))


@settings(max_examples=60, deadline=None)
@given(
    basis=st.binary(max_size=5000),
    target=st.binary(max_size=5000),
    read_chunk=st.integers(1, 3000),
)
# Reads shorter than a block, and not a multiple of one: each span is one block.
@example(basis=bytes(range(256)) * 3 + b"tail", target=b"", read_chunk=37)
def test_whole_file_digests_are_strong_digests_for_any_chunking(basis, target, read_chunk):
    # The incremental digests of the signature and the delta equal the
    # one-shot digest, wherever the read seams fall.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delta_sync, "READ_CHUNK", read_chunk)
        sig = compute_signature(ranged(basis), 64)
        delta, _ = compute_delta(sig, ranged(target))
    assert sig == signature_by_block(basis, 64)
    assert sig.content_digest == strong_digest(basis)
    assert (delta.basis_digest, delta.target_digest) == (strong_digest(basis), strong_digest(target))
    assert apply_delta(basis, delta) == target


# --- deltas -------------------------------------------------------------------


def test_identical_target_is_single_copy_run():
    data = rng(5).bytes(64 * 1024)
    delta, stats = compute_delta(compute_signature(data, 2048), data)
    assert stats.literal_bytes == 0
    assert delta.ops == (CopyOp(first_block=0, block_count=32),)
    assert apply_delta(data, delta) == data


def test_identical_unaligned_target_single_copy_run():
    data = rng(6).bytes(64 * 1024 + 123)  # short final block
    delta, stats = compute_delta(compute_signature(data, 2048), data)
    assert stats.literal_bytes == 0
    assert len(delta.ops) == 1
    assert apply_delta(data, delta) == data


def test_a_tail_with_the_short_blocks_weak_checksum_but_other_bytes_is_literal():
    # The tails share a weak checksum (a = 2, b = 4) but differ in bytes:
    # the strong digest alone decides the tail match.
    head = rng(71).bytes(32)
    basis, target = head + b"\x01\x00\x01", head + b"\x00\x02\x00"
    sig = compute_signature(basis, 16)
    assert weak_checksum(b"\x01\x00\x01") == weak_checksum(b"\x00\x02\x00") == (2, 4)
    assert sig.weaks[-4:] == combine_weak(2, 4).to_bytes(4, "little")
    delta, _ = compute_delta(sig, target)
    assert delta.ops == (CopyOp(0, 2), LiteralOp(b"\x00\x02\x00"))
    assert apply_delta(basis, delta) == target


def test_empty_basis_means_all_literals():
    target = rng(7).bytes(5000)
    sig = compute_signature(b"", 1024)
    delta, stats = compute_delta(sig, target)
    assert stats.literal_bytes == 5000
    assert apply_delta(b"", delta) == target


def test_single_byte_flip_costs_at_most_two_blocks():
    basis = rng(8).bytes(64 * 1024)
    target = bytearray(basis)
    target[30_000] ^= 0xFF
    target = bytes(target)
    delta, stats = compute_delta(compute_signature(basis, 2048), target)
    assert stats.literal_bytes <= 2 * 2048
    assert apply_delta(basis, delta) == target


def test_stats_accounting_exact():
    basis = rng(9).bytes(8192)
    target = bytearray(basis)
    target[5000] ^= 1
    target = bytes(target)
    sig = compute_signature(basis, 2048)
    delta, stats = compute_delta(sig, target)
    copies = sum(1 for op in delta.ops if isinstance(op, CopyOp))
    literals = [op for op in delta.ops if isinstance(op, LiteralOp)]
    expected = (
        sig.wire_bytes
        + FILE_WIRE_OVERHEAD
        + copies * COPY_OP_WIRE
        + sum(len(op.data) + LITERAL_OP_WIRE for op in literals)
    )
    assert stats.wire_bytes == expected
    assert stats.scanned_bytes == len(target)
    assert stats.literal_bytes == sum(len(op.data) for op in literals)


def test_wire_ratio_scales_literal_charge():
    target = rng(10).bytes(10_000)
    sig = compute_signature(b"", 1024)
    _, full = compute_delta(sig, target, wire_ratio=1.0)
    _, half = compute_delta(sig, target, wire_ratio=0.5)
    assert half.literal_bytes == 5000
    assert full.literal_bytes == 10_000
    assert half.wire_bytes < full.wire_bytes
    assert half.literal_bytes <= half.wire_bytes


@pytest.mark.parametrize("ratio", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_compute_delta_refuses_a_bad_wire_ratio_before_reading(ratio):
    def unread(start, stop):
        raise AssertionError("the target was read")

    sig = compute_signature(rng(10).bytes(4096), 1024)
    with pytest.raises(ValueError, match="wire_ratio must be positive and finite"):
        compute_delta(sig, (10_000, unread), wire_ratio=ratio)


def test_monotone_efficiency_in_changed_blocks():
    basis = rng(11).bytes(32 * 2048)
    sig = compute_signature(basis, 2048)
    previous = compute_delta(sig, basis)[1].wire_bytes
    target = bytearray(basis)
    for k in (3, 9, 17, 25):  # flip one byte in successive blocks
        target[k * 2048 + 7] ^= 0xFF
        wire = compute_delta(sig, bytes(target))[1].wire_bytes
        assert wire >= previous
        previous = wire


def test_determinism_bit_identical():
    basis = rng(12).bytes(100_000)
    target = rng(13).bytes(100_000)
    sig = compute_signature(basis, 2048)
    first = compute_delta(sig, target)
    second = compute_delta(sig, target)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_repeated_block_basis_prefers_earliest_block():
    tile = rng(14).bytes(2048)
    basis = tile * 8
    delta, _ = compute_delta(compute_signature(basis, 2048), tile)
    assert delta.ops == (CopyOp(first_block=0, block_count=1),)


def test_apply_rejects_wrong_basis():
    basis = rng(15).bytes(4096)
    delta, _ = compute_delta(compute_signature(basis, 1024), basis)
    with pytest.raises(BasisMismatchError):
        apply_delta(basis[:-1] + b"x", delta)


def test_apply_rejects_out_of_range_copy():
    basis = rng(16).bytes(4096)
    delta = FileDelta(
        block_size=1024,
        ops=(CopyOp(first_block=4, block_count=1),),
        target_length=1024,
        basis_digest=strong_digest(basis),
        target_digest=strong_digest(basis[:1024]),
    )
    with pytest.raises(CorruptDeltaError):
        apply_delta(basis, delta)


def test_apply_all_literal_to_empty_basis():
    delta = FileDelta(
        block_size=1024,
        ops=(LiteralOp(data=b"hello world"),),
        target_length=11,
        basis_digest=strong_digest(b""),
        target_digest=strong_digest(b"hello world"),
    )
    assert apply_delta(b"", delta) == b"hello world"


def test_apply_rejects_tampered_literal():
    basis = rng(17).bytes(8192)
    target = bytearray(basis)
    target[3000:3100] = rng(18).bytes(100)
    delta, _ = compute_delta(compute_signature(basis, 1024), bytes(target))
    i = next(k for k, op in enumerate(delta.ops) if isinstance(op, LiteralOp))
    data = bytearray(delta.ops[i].data)
    data[len(data) // 2] ^= 1
    ops = delta.ops[:i] + (LiteralOp(data=bytes(data)),) + delta.ops[i + 1:]
    with pytest.raises(CorruptDeltaError):
        apply_delta(basis, replace(delta, ops=ops))


# --- oracle: the plain greedy scan ----------------------------------------------


def reference_delta(basis, target, L):
    """Ops and stats of a plain greedy scan that rolls one byte at a time.

    A dict maps each full basis block's weak checksum to its block ids;
    at each position whose weak checksum is known, the earliest block
    with the same strong digest wins.  The short final basis block can
    only match the end of the target.
    """
    n = len(target)
    table = {}
    for i in range(len(basis) // L):
        table.setdefault(combine_weak(*weak_checksum(basis[i * L:(i + 1) * L])), []).append(i)
    n_blocks = -(-len(basis) // L)
    ops = []
    stats = SyncStats(wire_bytes=n_blocks * SIG_BYTES_PER_BLOCK + FILE_WIRE_OVERHEAD,
                      scanned_bytes=n)

    def literal(chunk):
        ops.append(LiteralOp(data=chunk))
        stats.literal_bytes += len(chunk)
        stats.wire_bytes += len(chunk) + LITERAL_OP_WIRE

    def copy(block):
        last = ops[-1] if ops else None
        if isinstance(last, CopyOp) and last.first_block + last.block_count == block:
            ops[-1] = CopyOp(first_block=last.first_block, block_count=last.block_count + 1)
        else:
            ops.append(CopyOp(first_block=block, block_count=1))
            stats.wire_bytes += COPY_OP_WIRE

    pos = lit_start = 0
    weak = None
    while pos + L <= n:
        if weak is None:
            weak = weak_checksum(target[pos:pos + L])
        ids = table.get(combine_weak(*weak), [])
        digest = strong_digest(target[pos:pos + L]) if ids else None
        match = next((j for j in ids if strong_digest(basis[j * L:(j + 1) * L]) == digest), None)
        if match is None:
            if pos + L < n:
                weak = weak_roll(*weak, target[pos], target[pos + L], L)
            pos += 1
            continue
        if lit_start < pos:
            literal(target[lit_start:pos])
        copy(match)
        pos = lit_start = pos + L
        weak = None
    short = len(basis) % L
    if short and n - lit_start >= short and target[n - short:] == basis[-short:]:
        if lit_start < n - short:
            literal(target[lit_start:n - short])
        copy(n_blocks - 1)
    elif lit_start < n:
        literal(target[lit_start:])
    return tuple(ops), stats


def edited(g, data, edits, alphabet):
    """``data`` with each (fraction, length, insert) edit applied in turn."""
    out = bytearray(data)
    for where, length, insert in edits:
        pos = int(where * len(out))
        if insert:
            out[pos:pos] = g.integers(0, alphabet, length, dtype=np.uint8).tobytes()
        else:
            del out[pos:pos + length]
    return bytes(out)


def assert_matches_reference(basis, target, L):
    """Ops and stats equal the plain greedy scan's, and the target
    rebuilds.  The signature is the one made block by block, and a
    ranged read source gives the same signature and delta as the bytes."""
    sig = compute_signature(basis, L)
    assert sig == signature_by_block(basis, L)
    delta, stats = compute_delta(sig, target)
    assert (delta.ops, stats) == reference_delta(basis, target, L)
    assert apply_delta(basis, delta) == target
    assert compute_signature(ranged(basis), L) == sig
    assert compute_delta(sig, ranged(target)) == (delta, stats)


@settings(max_examples=150, deadline=None)
@given(
    block_size=st.integers(MIN_BLOCK_SIZE, 1024),
    window_blocks=st.sampled_from([2, 3]),
    n_blocks=st.integers(0, 12),
    extra=st.floats(0, 1, exclude_max=True),
    alphabet=st.sampled_from([1, 2, 256]),
    random_target=st.booleans(),
    edits=st.lists(st.tuples(st.floats(0, 1), st.integers(1, 2048), st.booleans()), max_size=5),
    first_window=st.floats(0, 1),
    read_chunk=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
)
# Reads shorter than a block, and not a multiple of one.
@example(block_size=100, window_blocks=2, n_blocks=9, extra=0.5, alphabet=2, random_target=False,
         edits=[(0.3, 150, True), (0.7, 40, False)], first_window=0.5, read_chunk=37, seed=1)
def test_scan_matches_greedy_reference(block_size, window_blocks, n_blocks, extra, alphabet,
                                       random_target, edits, first_window, read_chunk, seed):
    # Windows of at most two or three blocks put many seams, and many
    # handovers from the aligned check to the rolling scan, in a short
    # target.  A first window of any size from one start up puts the
    # seams where windows grow, and where a match resets them, inside
    # blocks.  Reads of up to 5000 bytes put read seams inside blocks,
    # scan windows and literals, and sign one block or several per read.
    g = rng(seed)
    length = n_blocks * block_size + int(extra * block_size)
    basis = g.integers(0, alphabet, length, dtype=np.uint8).tobytes()
    if random_target:
        target = g.integers(0, alphabet, length, dtype=np.uint8).tobytes()
    else:
        target = edited(g, basis, [(w, n % (2 * block_size) + 1, i) for w, n, i in edits],
                        alphabet)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delta_sync, "SCAN_WINDOW", window_blocks * block_size)
        first = 1 + int(first_window * (window_blocks * block_size - 1))
        mp.setattr(delta_sync, "_first_window", lambda L: first)
        mp.setattr(delta_sync, "READ_CHUNK", read_chunk)
        assert_matches_reference(basis, target, block_size)


def spied_windows(mp):
    """``(first start, start count)`` of every scan window opened while
    ``mp`` is in effect."""
    windows = []
    real = delta_sync._scan_window

    def spy(window, start, L, *rest):
        windows.append((start, len(window) - L + 1))
        return real(window, start, L, *rest)

    mp.setattr(delta_sync, "_scan_window", spy)
    return windows


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_scan_matches_reference_at_real_window_seams(shift):
    # An unmatched run over windows that grow to the full size, after
    # which the basis resumes at an unaligned offset so that the first
    # match starts one byte before, at, or one byte after the seam of the
    # first two full-size windows; unaligned inserts and deletes follow
    # in later windows.
    W, L = delta_sync.SCAN_WINDOW, 512
    g = rng(40)
    basis = g.bytes(2 * W)
    sig = compute_signature(basis, L)
    with pytest.MonkeyPatch.context() as mp:
        probe = spied_windows(mp)
        compute_delta(sig, basis[:4 * L] + g.bytes(3 * W))  # unmatched from 4 * L on
    seam = next(start + count for start, count in probe if count == W)
    resume = 4 * L + 100
    gap = seam + shift - 5 * L + 100  # first match starts at seam + shift
    target = basis[:4 * L] + g.bytes(gap) + edited(
        g, basis[resume:], [(0.3, 7, True), (0.6, 300, False), (0.9, 1, True)], 256)
    assert len(target) >= 3 * W
    with pytest.MonkeyPatch.context() as mp:
        windows = spied_windows(mp)
        assert_matches_reference(basis, target, L)
    assert (seam - W, W) in windows
    assert shift < 0 or (seam, W) in windows


def test_scan_filter_passes_few_starts_of_a_large_basis():
    # About 10^5 known weaks of random 2 KiB windows, and a full window
    # of random starts: few of them may reach the exact lookup, which
    # they reach only through both probes.  A key of the weak's low 20
    # bits (all of a, which sits in a narrow band for random bytes, and
    # four bits of b) passes about 40% of them here; the first probe
    # alone passes about 9%, and both about 0.8%.
    L = 2048
    g = rng(60)
    work = delta_sync._ScanWork()
    known = np.unique(delta_sync._window_weaks(g.bytes(10**5 + L - 1), L, work))
    filt = delta_sync._weak_filter(known)
    assert len(filt) >= max(2**18, 16 * len(known))
    for mix in delta_sync.WEAK_MIXES:
        assert filt[delta_sync._filter_slots(known, filt, mix)].all()
    probe = delta_sync._window_weaks(g.bytes(delta_sync.SCAN_WINDOW + L - 1), L, work)
    first, second = (filt[delta_sync._filter_slots(probe, filt, mix)]
                     for mix in delta_sync.WEAK_MIXES)
    passed = first & second
    assert passed.mean() <= 0.05


@pytest.fixture(scope="module")
def pages_pair():
    """16 MiB with 5% of its 4 KiB pages rewritten: ``(basis, target)``."""
    n, page = 16 * 2**20, 4096
    g = rng(50)
    basis = g.bytes(n)
    target = bytearray(basis)
    for p in g.choice(n // page, size=n // page // 20, replace=False):
        target[p * page:(p + 1) * page] = g.bytes(page)
    return basis, bytes(target)


def test_signature_and_delta_memory_is_bounded(pages_pair):
    # The working memory of both calls is bounded by the scan window,
    # not by the file size.
    basis, target = pages_pair
    bound = 16 * 10**6
    sig, sig_peak = traced_peak(compute_signature, basis)
    (delta, _), delta_peak = traced_peak(compute_delta, sig, target)
    assert sig_peak < bound
    assert delta_peak < bound
    assert apply_delta(basis, delta) == target


def test_scan_evaluates_few_starts_past_each_match(pages_pair, monkeypatch):
    # Each rewritten page ends a copy run; the scan that finds where the
    # next one starts should read a few blocks past it, not a full-size
    # window, so it evaluates a small share of the file's starts.
    basis, target = pages_pair
    sig = compute_signature(basis)
    windows = spied_windows(monkeypatch)
    delta, _ = compute_delta(sig, target)
    assert sum(count for _, count in windows) <= 0.2 * len(target)
    assert apply_delta(basis, delta) == target


def test_apply_delta_builds_the_target_once():
    # An 8 MiB identical pair is one copy run: rebuilding it holds the
    # target once, not a working buffer plus a copy of it.
    data = rng(51).bytes(8 * 2**20)
    delta, _ = compute_delta(compute_signature(data), data)
    rebuilt, peak = traced_peak(apply_delta, data, delta)
    assert rebuilt == data
    assert peak < 1.25 * len(data)


@pytest.mark.parametrize("kind,bound", [("pages-5pct", 0.75), ("disjoint", 2.5)])
def test_tree_sync_streams_patched_files(kind, bound):
    # A 16 MiB patched file flows through sync and apply in bounded
    # chunks: neither side holds the basis, the target or the rebuilt
    # file whole.  A memory chunk with 5% of its pages rewritten needs
    # its signature and a few read chunks; a disjoint file is one literal
    # run, which streams too (see test_tree_sync_holds_no_literal_whole).
    n = 16 * 2**20
    if kind == "pages-5pct":
        image = new_memory_image(n, 52, churn_rate=0.05)
        old, new = (serialize_memory(i, chunk_size=n)["checkpoint/mem-00000.img"]
                    for i in (image, advance_memory(image, 1)))
    else:
        old, new = SyntheticContent(seed=53, length=n), SyntheticContent(seed=53, length=n, epoch=1)
    basis, target = FileTree({"f.bin": old}), FileTree({"f.bin": new})

    def sync_and_apply():
        delta, stats = sync_tree(basis, target)
        return apply_tree_delta(basis, delta), stats

    (rebuilt, stats), peak = traced_peak(sync_and_apply)
    assert stats.files_patched == 1
    assert rebuilt == target
    assert peak < bound * n


@pytest.mark.parametrize("kind", ["pages-5pct", "disjoint"])
def test_tree_sync_holds_no_literal_whole(kind):
    # The scan streams literal pieces straight into the receiver's
    # rebuild, and the tree delta carries none of them, so neither a
    # 5% rewrite nor a wholly new 16 MiB file is ever held whole: both
    # peak at well under half the file.
    n = 16 * 2**20
    basis, target = (FileTree({"f.bin": entry}) for entry in patched_pair(kind, n))

    def sync_and_apply():
        delta, stats = sync_tree(basis, target)
        return apply_tree_delta(basis, delta), stats

    (rebuilt, stats), peak = traced_peak(sync_and_apply)
    assert stats.files_patched == 1
    assert rebuilt == target
    assert peak <= 0.5 * n


def patched_pair(kind, n):
    """Basis and target entries of one ``n``-byte file: a memory chunk
    with 5% of its pages rewritten, or two disjoint synthetic files."""
    if kind == "pages-5pct":
        image = new_memory_image(n, 52, churn_rate=0.05)
        return (serialize_memory(i, chunk_size=n)["checkpoint/mem-00000.img"]
                for i in (image, advance_memory(image, 1)))
    return SyntheticContent(seed=53, length=n), SyntheticContent(seed=53, length=n, epoch=1)


@settings(max_examples=80, deadline=None)
@given(
    basis=st.binary(max_size=6000),
    target=st.binary(max_size=6000),
    block_size=st.sampled_from([16, 64, 256, 1024]),
)
def test_round_trip_property(basis, target, block_size):
    delta, stats = compute_delta(compute_signature(basis, block_size), target)
    assert apply_delta(basis, delta) == target
    assert stats.literal_bytes <= stats.wire_bytes


@settings(max_examples=40, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=4000),
    edits=st.lists(st.tuples(st.integers(0, 3999), st.binary(max_size=64)), max_size=4),
    block_size=st.sampled_from([16, 128, 512]),
)
def test_round_trip_of_edited_targets(data, edits, block_size):
    target = bytearray(data)
    for pos, chunk in edits:
        pos = pos % (len(target) + 1)
        target[pos:pos] = chunk  # insertion shifts alignment
    target = bytes(target)
    delta, _ = compute_delta(compute_signature(data, block_size), target)
    assert apply_delta(data, delta) == target


# --- tree sync -----------------------------------------------------------------


def tree_of(entries):
    return FileTree(entries)


def test_sync_tree_identical_trees_all_unchanged():
    tree = tree_of({
        "a/one.bin": SyntheticContent(seed=1, length=5000),
        "b/two.bin": SyntheticContent(seed=2, length=3000),
    })
    delta, stats = sync_tree(tree, tree)
    assert stats.files_unchanged == 2
    assert stats.literal_bytes == 0
    assert delta.entries == ()


def test_sync_tree_created_file_charges_its_length():
    basis = tree_of({"a.bin": SyntheticContent(seed=1, length=1000)})
    target = basis.with_entries({"new.bin": SyntheticContent(seed=9, length=10_240)})
    delta, stats = sync_tree(basis, target)
    assert stats.files_created == 1
    assert stats.literal_bytes == 10_240
    assert stats.wire_bytes == 2 * FILE_WIRE_OVERHEAD + 10_240 + LITERAL_OP_WIRE
    assert delta.entries == ()
    # A created file is carried as the target's descriptor itself.
    assert delta.created.paths() == ["new.bin"]
    assert delta.created.get("new.bin") is target.get("new.bin")


def test_sync_tree_deletion():
    basis = tree_of({
        "keep.bin": SyntheticContent(seed=1, length=100),
        "drop.bin": SyntheticContent(seed=2, length=100),
    })
    target = basis.without(["drop.bin"])
    delta, stats = sync_tree(basis, target)
    assert stats.files_deleted == 1
    assert isinstance(dict(delta.entries)["drop.bin"], Deleted)
    rebuilt = apply_tree_delta(basis, delta)
    assert rebuilt == target


def test_sync_tree_patches_match_per_file_diff_oracle():
    # Oracle: run compute_delta per differing file directly and compare
    # the aggregate wire accounting.
    shared = {f"app/f{i}.bin": SyntheticContent(seed=i, length=4096) for i in range(6)}
    basis = tree_of(shared)
    changed = dict(shared)
    changed["app/f2.bin"] = SyntheticContent(seed=2, length=4096, epoch=1)
    unique = {"inst/u.bin": SyntheticContent(seed=77, length=8192)}
    target = tree_of({**changed, **unique})

    delta, stats = sync_tree(basis, target, 1024)

    basis_bytes = materialize(basis)
    target_bytes = materialize(target)
    expected_wire = 0
    for path in sorted(set(basis_bytes) | set(target_bytes)):
        if path not in basis_bytes:
            expected_wire += FILE_WIRE_OVERHEAD + len(target_bytes[path]) + LITERAL_OP_WIRE
        elif basis_bytes[path] == target_bytes[path]:
            expected_wire += FILE_WIRE_OVERHEAD
        else:
            sig = compute_signature(basis_bytes[path], 1024)
            expected_wire += compute_delta(sig, target_bytes[path])[1].wire_bytes
    assert stats.wire_bytes == expected_wire
    assert stats.files_patched == 1
    assert stats.files_created == 1

    rebuilt = apply_tree_delta(basis, delta)
    assert materialize(rebuilt) == target_bytes


def test_apply_tree_delta_verifies_patches():
    basis = tree_of({"f.bin": SyntheticContent(seed=1, length=2048)})
    target = tree_of({"f.bin": SyntheticContent(seed=1, length=2048, epoch=3)})
    delta, _ = sync_tree(basis, target, 1024)
    # Applying against a different basis tree must fail loudly.
    wrong = tree_of({"f.bin": SyntheticContent(seed=99, length=2048)})
    with pytest.raises((BasisMismatchError, CorruptDeltaError)):
        apply_tree_delta(wrong, delta)


def test_apply_tree_delta_renders_only_the_basis(monkeypatch):
    # The receiver checks a patch against the sender's target digest; it
    # has no way to render the sender's target.  Across sync and apply,
    # the target is rendered only by the sender's one forward read, every
    # other rendered range belongs to the basis entry, and
    # apply_tree_delta, which adopts targets verified during the sync,
    # renders nothing.  Three and a half read chunks give several reads.
    n = 7 * delta_sync.READ_CHUNK // 2
    old, new = SyntheticContent(seed=1, length=n), SyntheticContent(seed=1, length=n, epoch=2)
    basis, target = tree_of({"f.bin": old}), tree_of({"f.bin": new})
    rendered = []
    real = delta_sync.materialize_entry

    def spy(path, entry, start=0, stop=None):
        rendered.append((entry, start, stop))
        return real(path, entry, start, stop)

    monkeypatch.setattr(delta_sync, "materialize_entry", spy)
    delta, stats = sync_tree(basis, target, 1024)
    assert stats.files_patched == 1
    target_reads = [(start, stop) for entry, start, stop in rendered if entry == new]
    assert [start for start, _ in target_reads] == [0] + [stop for _, stop in target_reads[:-1]]
    assert target_reads[-1][1] == n
    assert sum(stop - start for start, stop in target_reads) == n
    assert len(target_reads) < len(rendered)
    assert all(entry == old for entry, _, _ in rendered if entry != new)
    rendered.clear()
    assert apply_tree_delta(basis, delta) == target
    assert rendered == []


def test_compute_delta_checks_the_basis_it_rebuilds_from():
    # Given the receiver's basis, compute_delta rebuilds the target from
    # it as the scan streams, and a basis other than the signed one
    # fails the basis digest check, even at the signed length.
    g = rng(54)
    basis = g.bytes(20_000)
    target = basis[:8_000] + g.bytes(4_000) + basis[12_000:]
    sig = compute_signature(basis, 1024)
    plain, plain_stats = compute_delta(sig, target)
    assert compute_delta(sig, target, basis=(len(basis), lambda a, b: basis[a:b])) == (
        replace(plain, ops=()), plain_stats)
    other = g.bytes(len(basis))
    with pytest.raises(BasisMismatchError):
        compute_delta(sig, target, basis=(len(other), lambda a, b: other[a:b]))


def test_sync_tree_verify_unchanged_charges_scan():
    tree = tree_of({"a.bin": SyntheticContent(seed=1, length=4096)})
    _, lazy = sync_tree(tree, tree)
    _, checked = sync_tree(tree, tree, verify_unchanged=True)
    assert lazy.scanned_bytes == 0
    assert checked.scanned_bytes == 4096
    assert checked.wire_bytes > lazy.wire_bytes
