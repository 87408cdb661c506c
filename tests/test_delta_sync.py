import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermig import delta_sync
from layermig.delta_sync import (
    COPY_OP_WIRE,
    FILE_WIRE_OVERHEAD,
    LITERAL_OP_WIRE,
    MIN_BLOCK_SIZE,
    SIG_BYTES_PER_BLOCK,
    BasisMismatchError,
    CopyOp,
    CorruptDeltaError,
    Created,
    Deleted,
    FileDelta,
    LiteralOp,
    Patched,
    SyncStats,
    Unchanged,
    apply_delta,
    apply_tree_delta,
    combine_weak,
    compute_delta,
    compute_signature,
    strong_digest,
    sync_tree,
    weak_checksum,
    weak_roll,
)
from layermig.layer_store import FileTree, LiteralContent, SyntheticContent, materialize


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


# --- signatures ---------------------------------------------------------------


def test_signature_of_empty_data():
    sig = compute_signature(b"", 1024)
    assert sig.blocks == ()
    assert sig.total_length == 0


def test_signature_block_ceiling():
    data = rng(1).bytes(2048)
    assert len(compute_signature(data, 1024).blocks) == 2
    sig = compute_signature(data + b"x", 1024)
    assert len(sig.blocks) == 3
    assert sig.block_length(2) == 1


def test_signature_rejects_tiny_block_size():
    with pytest.raises(ValueError):
        compute_signature(b"abc", 0)
    with pytest.raises(ValueError):
        compute_signature(b"abc", 8)


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
    for i, block in enumerate(sig.blocks):
        ref = combine_weak(*weak_checksum(data[i * 512:(i + 1) * 512]))
        assert block.weak == ref


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
    delta, stats = compute_delta(compute_signature(basis, L), target)
    assert (delta.ops, stats) == reference_delta(basis, target, L)
    assert apply_delta(basis, delta) == target


@settings(max_examples=150, deadline=None)
@given(
    block_size=st.integers(MIN_BLOCK_SIZE, 1024),
    window_blocks=st.sampled_from([2, 3]),
    n_blocks=st.integers(0, 12),
    extra=st.floats(0, 1, exclude_max=True),
    alphabet=st.sampled_from([1, 2, 256]),
    random_target=st.booleans(),
    edits=st.lists(st.tuples(st.floats(0, 1), st.integers(1, 2048), st.booleans()), max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_matches_greedy_reference(block_size, window_blocks, n_blocks, extra, alphabet,
                                       random_target, edits, seed):
    # Windows of two or three blocks put many seams, and many handovers
    # from the aligned check to the rolling scan, in a short target.
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
        assert_matches_reference(basis, target, block_size)


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_scan_matches_reference_at_real_window_seams(shift):
    # An unmatched run of more than two scan windows, after which the basis
    # resumes at an unaligned offset so that the first match starts one
    # byte before, at, or one byte after the seam of the second and third
    # windows; unaligned inserts and deletes follow in later windows.
    W, L = delta_sync.SCAN_WINDOW, 512
    g = rng(40)
    basis = g.bytes(2 * W)
    resume = 4 * L + 100
    gap = 2 * W - L + 100 + shift  # first match starts at 4 * L + 2 * W + shift
    target = basis[:4 * L] + g.bytes(gap) + edited(
        g, basis[resume:], [(0.3, 7, True), (0.6, 300, False), (0.9, 1, True)], 256)
    assert len(target) >= 3 * W
    assert_matches_reference(basis, target, L)


def traced_peak(fn, *args):
    """``fn(*args)`` and the tracemalloc peak of the call alone."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_signature_and_delta_memory_is_bounded():
    # 16 MiB with 5% of its 4 KiB pages rewritten: the working memory of
    # both calls is bounded by the scan window, not by the file size.
    n, page, bound = 16 * 2**20, 4096, 16 * 10**6
    g = rng(50)
    basis = g.bytes(n)
    target = bytearray(basis)
    for p in g.choice(n // page, size=n // page // 20, replace=False):
        target[p * page:(p + 1) * page] = g.bytes(page)
    target = bytes(target)
    sig, sig_peak = traced_peak(compute_signature, basis)
    (delta, _), delta_peak = traced_peak(compute_delta, sig, target)
    assert sig_peak < bound
    assert delta_peak < bound
    assert apply_delta(basis, delta) == target


def test_apply_delta_builds_the_target_once():
    # An 8 MiB identical pair is one copy run: rebuilding it holds the
    # target once, not a working buffer plus a copy of it.
    data = rng(51).bytes(8 * 2**20)
    delta, _ = compute_delta(compute_signature(data), data)
    rebuilt, peak = traced_peak(apply_delta, data, delta)
    assert rebuilt == data
    assert peak < 1.25 * len(data)


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
    assert all(isinstance(op, Unchanged) for _, op in delta.entries)


def test_sync_tree_created_file_charges_its_length():
    basis = tree_of({"a.bin": SyntheticContent(seed=1, length=1000)})
    target = basis.with_entries({"new.bin": SyntheticContent(seed=9, length=10_240)})
    delta, stats = sync_tree(basis, target)
    assert stats.files_created == 1
    assert stats.literal_bytes == 10_240
    assert stats.wire_bytes == 2 * FILE_WIRE_OVERHEAD + 10_240 + LITERAL_OP_WIRE
    ops = dict(delta.entries)
    assert isinstance(ops["new.bin"], Created)


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
    # The receiver checks a patch against the delta's target digest; it
    # has no way to render the sender's target.
    basis = tree_of({"f.bin": SyntheticContent(seed=1, length=4096)})
    target = tree_of({"f.bin": SyntheticContent(seed=1, length=4096, epoch=2)})
    delta, stats = sync_tree(basis, target, 1024)
    assert stats.files_patched == 1
    rendered = []
    real = delta_sync.materialize_entry
    monkeypatch.setattr(delta_sync, "materialize_entry",
                        lambda path, entry: rendered.append(entry) or real(path, entry))
    assert apply_tree_delta(basis, delta) == target
    assert rendered == [basis.get("f.bin")]


def test_sync_tree_verify_unchanged_charges_scan():
    tree = tree_of({"a.bin": SyntheticContent(seed=1, length=4096)})
    _, lazy = sync_tree(tree, tree)
    _, checked = sync_tree(tree, tree, verify_unchanged=True)
    assert lazy.scanned_bytes == 0
    assert checked.scanned_bytes == 4096
    assert checked.wire_bytes > lazy.wire_bytes
