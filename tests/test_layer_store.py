import json
import math
import posixpath
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from layermig.delta_sync import (
    DEFAULT_BLOCK_SIZE,
    FILE_WIRE_OVERHEAD,
    LITERAL_OP_WIRE,
    VERIFY_WIRE,
    Deleted,
    Patched,
    SyncStats,
    apply_tree_delta,
    compute_delta,
    compute_signature,
    sync_tree,
)
from layermig.layer_store import (
    DEFAULT_CHUNK_SIZE,
    FileTree,
    LiteralContent,
    MemoryChunkContent,
    MemoryImage,
    SyntheticContent,
    advance_memory,
    materialize_entry,
    new_memory_image,
    normalize_path,
    restore_memory,
    _stream_bytes,
    serialize_memory,
    synthetic_files,
)
from oracles import (
    assert_same_tree,
    is_superset,
    materialize_memory,
    restore_memory_by_join,
    serialize_memory_by_chunk,
    stream_bytes_by_constructor,
    traced_peak,
)

MB = 1_000_000


# --- content --------------------------------------------------------------------


def test_zero_length_synthetic_content():
    assert materialize_entry("x", SyntheticContent(seed=7, length=0)) == b""


def test_materialization_is_deterministic():
    entry = SyntheticContent(seed=7, length=4096, epoch=2)
    assert materialize_entry("a/b", entry) == materialize_entry("a/b", entry)


def test_content_depends_on_seed_path_and_epoch():
    base = materialize_entry("p", SyntheticContent(seed=7, length=1024))
    assert materialize_entry("p", SyntheticContent(seed=8, length=1024)) != base
    assert materialize_entry("q", SyntheticContent(seed=7, length=1024)) != base
    assert materialize_entry("p", SyntheticContent(seed=7, length=1024, epoch=1)) != base


def test_different_seeds_differ_in_almost_all_blocks():
    # Measured through the delta engine, as an end-to-end divergence check.
    a = materialize_entry("f", SyntheticContent(seed=7, length=64 * 1024))
    b = materialize_entry("f", SyntheticContent(seed=8, length=64 * 1024))
    _, stats = compute_delta(compute_signature(a, 1024), b)
    assert stats.literal_bytes / len(b) >= 0.99


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["synthetic", "memory", "literal"]),
    size=st.integers(0, 300),
    page_size=st.sampled_from([32, 96, 4096]),
    steps=st.integers(0, 4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_ranged_render_is_a_slice_of_the_whole(kind, size, page_size, steps, seed, data):
    # Synthetic sizes and bounds are unaligned to the 32-byte stream
    # block; a memory chunk starts past page 0, its bounds fall inside
    # pages, and churn gives its pages runs of several epochs.
    if kind == "literal":
        entry = LiteralContent(np.random.default_rng(seed).bytes(size))
    elif kind == "synthetic":
        entry = SyntheticContent(seed=seed, length=size * 37, epoch=steps)
    else:
        pages = size % 40 + 1  # per chunk; the second chunk is the one rendered
        image = advance_memory(
            new_memory_image((2 * pages + 1) * page_size, seed, page_size=page_size, churn_rate=0.3),
            steps)
        entry = serialize_memory(image, chunk_size=pages * page_size)["checkpoint/mem-00001.img"]
        assert entry.start_page == pages
    whole = materialize_entry("a/f.bin", entry)
    assert len(whole) == entry.length
    start = data.draw(st.integers(0, entry.length + 40))
    stop = data.draw(st.none() | st.integers(0, entry.length + 40))
    assert materialize_entry("a/f.bin", entry, start, stop) == whole[start:stop]


# Offsets on and off the 32-byte stream block, with counters past 2^64.
STREAM_OFFSETS = st.tuples(st.integers(0, 2**70), st.integers(0, 31)).map(lambda bs: 32 * bs[0] + bs[1])
STREAM_KEYS = st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(key=STREAM_KEYS, offset=STREAM_OFFSETS, length=st.integers(0, 3 * 4096),
       before=st.tuples(STREAM_KEYS, STREAM_OFFSETS, st.integers(0, 100)))
def test_stream_bytes_match_a_new_generator(key, offset, length, before):
    # ``before`` leaves the thread's generator mid-stream first.
    _stream_bytes(np.array(before[0], dtype=np.uint64), before[2], before[1])
    key = np.array(key, dtype=np.uint64)
    assert _stream_bytes(key, length, offset) == stream_bytes_by_constructor(key, length, offset)


def test_stream_bytes_are_the_same_on_another_thread():
    key = np.array([7, 2**63 + 5], dtype=np.uint64)
    here = _stream_bytes(key, 5000, 77)
    there = []
    worker = threading.Thread(target=lambda: there.append(_stream_bytes(key, 5000, 77)))
    worker.start()
    worker.join()
    assert there == [here] and here == stream_bytes_by_constructor(key, 5000, 77)


def test_path_normalization():
    assert normalize_path("a//b/./c.bin") == "a/b/c.bin"
    assert normalize_path("/lead/slash") == "lead/slash"
    with pytest.raises(ValueError):
        normalize_path("../escape")
    with pytest.raises(ValueError):
        normalize_path("a/../../b")


@pytest.mark.parametrize("path,norm", [("..foo/bar", "..foo/bar"), ("a/..b", "a/..b"),
                                       ("./..foo", "..foo")])
def test_path_normalization_keeps_names_that_begin_with_dots(path, norm):
    assert normalize_path(path) == norm


@pytest.mark.parametrize("path", ["../x", "a/../../b", "..", "a/..", "/"])
def test_path_normalization_rejects_escapes_and_empty_paths(path):
    with pytest.raises(ValueError):
        normalize_path(path)


def posix_normal_form(path):
    """Reference: every path through ``posixpath.normpath``, with no fast check."""
    norm = posixpath.normpath(path.replace("\\", "/")).lstrip("/")
    if norm in ("", ".", "..") or norm.startswith("../"):
        raise ValueError(f"invalid tree path: {path!r}")
    return norm


PATH_TEXT = st.text(alphabet=st.sampled_from(["a", "b", ".", "/", "\\", " "]), max_size=12) | st.text()


@settings(max_examples=1000, deadline=None)
@given(path=PATH_TEXT)
def test_normalize_path_matches_posixpath(path):
    try:
        expected = posix_normal_form(path)
    except ValueError:
        with pytest.raises(ValueError):
            normalize_path(path)
        return
    assert normalize_path(path) == expected


def test_tree_iteration_is_sorted():
    tree = FileTree({
        "z/last.bin": LiteralContent(b"1"),
        "a/first.bin": LiteralContent(b"2"),
        "m/mid.bin": LiteralContent(b"3"),
    })
    assert tree.paths() == ["a/first.bin", "m/mid.bin", "z/last.bin"]


def test_synthetic_files_chunking():
    entries = synthetic_files("base", 10 * MB, seed=1, max_file_bytes=4 * MB)
    sizes = [e.length for e in entries.values()]
    assert sum(sizes) == 10 * MB
    assert len(entries) == 3


# --- layers ---------------------------------------------------------------------


def make_base(seed=1, size=32 * 1024):
    return FileTree(synthetic_files("base", size, seed=seed))


def test_clone_extension_does_not_touch_source():
    # A clone stage reuses the lower layer's tree; extending it builds a new one.
    base = make_base()
    extended = base.with_entries({"app/new.bin": SyntheticContent(seed=9, length=100)})
    assert "app/new.bin" not in base
    assert is_superset(extended, base)


def test_clone_then_sync_transfers_only_new_data():
    # The pseudo-incremental scheme: clone the lower layer, then the delta
    # engine moves just the higher layer's unique bytes.
    base = make_base(size=64 * 1024)
    unique = {"app/u.bin": SyntheticContent(seed=42, length=8 * 1024)}
    app_tree = base.with_entries(unique)
    _, stats = sync_tree(base, app_tree)
    assert stats.literal_bytes == 8 * 1024
    assert stats.files_created == 1
    # Wire cost is the unique data plus small per-file overheads only.
    assert stats.wire_bytes < 8 * 1024 + 64 * (len(app_tree) + 1)


def test_superset_invariant_checked_exhaustively():
    base = make_base(size=48 * 1024)
    app_tree = base.with_entries({"app/a.bin": SyntheticContent(seed=3, length=100)})
    for path, entry in base.items():
        assert app_tree.get(path) == entry


# --- derived trees: oracle against building from scratch -----------------------

# Each reference builds its result the way every derived tree used to be
# built: a plain dict of the wanted entries, validated and sorted by the
# FileTree constructor.


def ref_with_entries(tree, extra):
    merged = dict(tree.items())
    for path, entry in extra.items():
        merged[normalize_path(path)] = entry
    return FileTree(merged)


def ref_without(tree, paths):
    drop = {normalize_path(p) for p in paths}
    return FileTree({p: e for p, e in tree.items() if p not in drop})


def ref_apply_tree_delta(basis, delta):
    out = dict(basis.items())
    for path, op in delta.entries:
        if isinstance(op, Deleted):
            out.pop(path, None)
        else:
            out[path] = op.target
    out.update(delta.created.items())  # created: the target's descriptors
    return FileTree(out)


_NAMES = st.sampled_from(["a", "b", "b.bin", "..c", "d"])
_SEPS = st.sampled_from(["/", "//", "/./"])


@st.composite
def spellings(draw):
    """Unnormalized spellings of valid paths: a leading "/" or "./",
    doubled separators, "." components and a trailing slash."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=3))
    path = names[0]
    for name in names[1:]:
        path += draw(_SEPS) + name
    return draw(st.sampled_from(["", "/", "./"])) + path + draw(st.sampled_from(["", "/"]))


SPELLINGS = spellings()
CONTENT = st.sampled_from([b"", b"x", b"xy", b"yx" * 40]).map(LiteralContent)
ENTRIES = st.dictionaries(SPELLINGS, CONTENT, max_size=12)


@settings(max_examples=200, deadline=None)
@given(base=ENTRIES, extra=ENTRIES, drop=st.lists(SPELLINGS, max_size=6))
def test_derived_trees_match_trees_built_from_scratch(base, extra, drop):
    tree = FileTree(base)
    assert_same_tree(tree.with_entries(extra), ref_with_entries(tree, extra))
    assert_same_tree(tree.with_entries(FileTree(extra)), ref_with_entries(tree, extra))
    assert_same_tree(tree.without(drop), ref_without(tree, drop))


@settings(max_examples=150, deadline=None)
@given(basis=ENTRIES, target=ENTRIES)
def test_apply_tree_delta_matches_tree_built_from_scratch(basis, target):
    basis, target = FileTree(basis), FileTree(target)
    delta, _ = sync_tree(basis, target)
    changed = {p for p in set(basis.paths()) | set(target.paths()) if basis.get(p) != target.get(p)}
    assert sorted([path for path, _ in delta.entries] + delta.created.paths()) == sorted(changed)
    synced = apply_tree_delta(basis, delta)
    assert_same_tree(synced, ref_apply_tree_delta(basis, delta))
    assert_same_tree(synced, target)


def ref_sync_tree(basis, target, verify_unchanged):
    """Per path, from the descriptors and their bytes, with no group in
    sight: (path, op name) pairs in path order, "Unchanged" included,
    and the stats."""
    stats = SyncStats()
    ops = []
    for path in sorted(set(basis.paths()) | set(target.paths())):
        b, t = basis.get(path), target.get(path)
        if t is None:
            stats.files_deleted += 1
            stats.wire_bytes += FILE_WIRE_OVERHEAD
            ops.append((path, "Deleted"))
        elif b is None:
            charged = math.ceil(t.length * t.wire_ratio)
            stats.files_created += 1
            stats.wire_bytes += FILE_WIRE_OVERHEAD + charged + LITERAL_OP_WIRE
            stats.literal_bytes += charged
            stats.scanned_bytes += t.length
            ops.append((path, "Created"))
        elif b == t or materialize_entry(path, b) == materialize_entry(path, t):
            stats.files_unchanged += 1
            stats.wire_bytes += FILE_WIRE_OVERHEAD
            if verify_unchanged or b != t:  # unequal descriptors are compared byte for byte
                stats.wire_bytes += VERIFY_WIRE
                stats.scanned_bytes += t.length
            ops.append((path, "Unchanged"))
        else:
            sig = compute_signature(materialize_entry(path, b), DEFAULT_BLOCK_SIZE)
            _, file_stats = compute_delta(sig, materialize_entry(path, t), wire_ratio=t.wire_ratio)
            stats.files_patched += 1
            stats.merge(file_stats)
            ops.append((path, "Patched"))
    return ops, stats


# Equal bytes under two wire ratios give equal-content, unequal descriptors.
SYNC_CONTENT = st.builds(LiteralContent, st.sampled_from([b"", b"x", b"yx" * 40]),
                         st.sampled_from([1.0, 0.5]))
SYNC_ENTRIES = st.dictionaries(SPELLINGS, SYNC_CONTENT, max_size=12)


@settings(max_examples=200, deadline=None)
@given(base=SYNC_ENTRIES, extra=SYNC_ENTRIES, drop=st.lists(SPELLINGS, max_size=6),
       verify=st.booleans(), pair=st.sampled_from(["derived", "swapped", "from-empty"]))
def test_sync_tree_over_shared_groups_matches_trees_built_from_scratch(
        base, extra, drop, verify, pair):
    basis = FileTree(base)
    target = basis.with_entries(extra).without(drop)  # shares the groups neither call touched
    if pair == "swapped":  # deletions become creations
        basis, target = target, basis
    elif pair == "from-empty":
        basis = FileTree()
    delta, stats = sync_tree(basis, target, verify_unchanged=verify)
    # Rebuilt, no group is shared: the basis's are equal to the target's
    # but other objects, and so are its descriptors.
    rebuilt_basis = FileTree({p: replace(e) for p, e in basis.items()})
    rebuilt_target = FileTree(dict(target.items()))
    ref_delta, ref_stats = sync_tree(rebuilt_basis, rebuilt_target, verify_unchanged=verify)
    assert stats == ref_stats
    assert delta.entries == ref_delta.entries
    assert delta.created == ref_delta.created
    ops, per_path = ref_sync_tree(basis, target, verify)
    assert stats == per_path
    changes = [(path, name) for path, name in ops if name != "Unchanged"]
    assert sorted(op_names(target, delta)) == changes


def op_names(target, delta):
    """(path, op name) of every change of a tree delta; a created file
    must be carried as the target's descriptor itself."""
    for path, op in delta.entries:
        assert isinstance(op, (Patched, Deleted))
        yield path, type(op).__name__
    for path, entry in delta.created.items():
        assert entry is target.get(path)
        yield path, "Created"


@pytest.mark.parametrize("verify", [False, True])
def test_apply_tree_delta_adopts_created_groups(verify):
    basis = FileTree({"base/a": LiteralContent(b"1"), "app/x": LiteralContent(b"2")})
    made = FileTree.of_groups(synthetic_files("data/d", 10_000, seed=3, max_file_bytes=4096),
                              synthetic_files("inst/i", 5_000, seed=4, max_file_bytes=4096))
    target = basis.with_entries(made).with_entries({"app/y": LiteralContent(b"3")})
    delta, stats = sync_tree(basis, target, verify_unchanged=verify)
    synced = apply_tree_delta(basis, delta)
    assert_same_tree(synced, target)
    for key in ("data/", "inst/"):
        assert delta.created.group(key) is target.group(key)
        assert synced.group(key) is target.group(key)
    assert delta.created.group("app/") == {"app/y": target.get("app/y")}
    assert synced.group("base/") is basis.group("base/")
    assert stats == ref_sync_tree(basis, target, verify)[1]


def test_derived_trees_share_untouched_groups():
    tree = FileTree({"base/a": LiteralContent(b"1"), "base/b/c": LiteralContent(b"2"),
                     "app/x": LiteralContent(b"3"), "app/y": LiteralContent(b"4"),
                     "root.bin": LiteralContent(b"5")})
    base, app = tree.group("base/"), tree.group("app/")
    assert tree.with_entries({"app/z": LiteralContent(b"6")}).group("base/") is base
    assert tree.without(["app/x", "root.bin"]).group("base/") is base
    target = tree.with_entries({"app/x": LiteralContent(b"33"), "new/n": LiteralContent(b"7")})
    synced = apply_tree_delta(tree, sync_tree(tree, target)[0])
    assert synced == target and synced.group("base/") is base
    # A tree's groups are adopted whole, and one that covers a held group replaces it.
    other = FileTree({"checkpoint/m": LiteralContent(b"8"), "app/x": LiteralContent(b"9"),
                      "app/y": LiteralContent(b"10")})
    merged = tree.with_entries(other)
    assert merged.group("checkpoint/") is other.group("checkpoint/")
    assert merged.group("app/") is other.group("app/") and merged.group("base/") is base


def test_iteration_is_sorted_across_group_seams():
    # "-" < "." < "/" < "0": root files and directories interleave.
    names = ["a/x", "a.bin", "a-b/x", "a", "a0/x", "a/y/z", "b", "-/x", "a-b"]
    entries = {name: LiteralContent(name.encode()) for name in names}
    tree = FileTree(entries)
    assert tree.paths() == sorted(names)
    assert [path for path, _ in tree.items()] == sorted(names)
    grown = FileTree({"a/x": LiteralContent(b"")}).with_entries(entries)
    assert grown.paths() == sorted(names)
    assert tree.without(["a", "a-b/x"]).paths() == sorted(set(names) - {"a", "a-b/x"})


@settings(max_examples=300, deadline=None)
@given(paths=st.lists(PATH_TEXT | st.text(alphabet="ab./\\\n", max_size=8), max_size=8))
def test_constructor_normalizes_like_normalize_path(paths):
    # The constructor checks all its paths at once; each must come out as
    # normalize_path gives it, and an invalid one must still be refused.
    entries = {path: LiteralContent(path.encode()) for path in paths}
    try:
        expected = {normalize_path(path): entry for path, entry in entries.items()}
    except ValueError:
        with pytest.raises(ValueError):
            FileTree(entries)
        return
    assert list(FileTree(entries).items()) == sorted(expected.items(), key=lambda item: item[0])


def test_with_entries_normalizes_only_its_extra_paths():
    tree = FileTree({"a/b": LiteralContent(b"1")})
    merged = tree.with_entries({"/z//y": LiteralContent(b"2"), "./a/./b": LiteralContent(b"3")})
    assert merged.paths() == ["a/b", "z/y"]
    assert merged.get("a/b") == LiteralContent(b"3")
    with pytest.raises(ValueError):
        tree.with_entries({"../x": LiteralContent(b"4")})


def test_get_and_in_take_normalized_paths_and_without_normalizes():
    tree = FileTree({"a/b": LiteralContent(b"1")})
    assert tree.get("./a/b") is None
    assert "./a/b" not in tree
    assert len(tree.without(["./a/b"])) == 0


@pytest.mark.parametrize("prefix", ["base", "./x//{0}/"])
def test_synthetic_files_are_one_group_in_path_order(prefix):
    # 10^5 + 3 files: names past f99999.bin sort out of index order.
    count = 10**5 + 3
    group = synthetic_files(prefix, 2 * count - 1, seed=5, max_file_bytes=2)
    norm = normalize_path(prefix)
    by_path = {f"{norm}/f{i:05d}.bin": SyntheticContent(seed=5, length=2) for i in range(count - 1)}
    by_path[f"{norm}/f{count - 1:05d}.bin"] = SyntheticContent(seed=5, length=1)
    assert group == by_path
    assert list(group) == sorted(by_path)
    assert_same_tree(FileTree.of_groups(group), FileTree(by_path))


def test_of_groups_refuses_two_groups_with_one_key():
    with pytest.raises(ValueError):
        FileTree.of_groups(synthetic_files("app/a", 1, seed=1), synthetic_files("app/b", 1, seed=2))


def test_synthetic_files_share_full_size_descriptors():
    entries = synthetic_files("app", 10 * MB, seed=3, max_file_bytes=4 * MB, epoch=2)
    first, second, last = entries.values()
    assert first is second
    assert last.length == 2 * MB and last is not first
    assert synthetic_files("app", 0, seed=3) == {}
    # Content is keyed by path, so files that share a descriptor still differ.
    assert materialize_entry("app/f00000.bin", first, 0, 64) != materialize_entry(
        "app/f00001.bin", second, 0, 64)


# --- memory images ----------------------------------------------------------------


def test_advance_zero_steps_is_identity():
    image = new_memory_image(1 * MB, seed=4, churn_rate=0.3)
    assert advance_memory(image, 0) == image


def test_zero_churn_leaves_bytes_unchanged():
    image = new_memory_image(256 * 1024, seed=4, churn_rate=0.0)
    later = advance_memory(image, 5)
    assert later.epoch == 5
    assert materialize_memory(later) == materialize_memory(image)


def test_churn_touches_exact_page_count():
    # Oracle: per-page byte comparison between the two materializations.
    image = new_memory_image(1000 * 4096, seed=6, churn_rate=0.25)
    stepped = advance_memory(image, 1)
    before = materialize_memory(image)
    after = materialize_memory(stepped)
    changed = sum(
        1
        for p in range(image.pages)
        if before[p * 4096:(p + 1) * 4096] != after[p * 4096:(p + 1) * 4096]
    )
    assert changed == 250
    assert int((np.frombuffer(stepped.page_epochs, dtype="<u4") == 1).sum()) == 250


def test_churn_is_deterministic():
    image = new_memory_image(100 * 4096, seed=6, churn_rate=0.1)
    a = advance_memory(image, 3)
    b = advance_memory(image, 3)
    assert a == b


def test_serialize_chunk_count_for_default_ram():
    image = new_memory_image(330 * MB, seed=1)
    entries = serialize_memory(image, DEFAULT_CHUNK_SIZE)
    chunks = [e for e in entries.values() if isinstance(e, MemoryChunkContent)]
    assert len(chunks) == math.ceil(330 * MB / DEFAULT_CHUNK_SIZE)
    total = sum(c.length for c in chunks)
    assert total == image.pages * image.page_size
    assert 0 <= total - 330 * MB < image.page_size


def test_serialize_zero_pages():
    image = new_memory_image(0, seed=1)
    entries = serialize_memory(image)
    chunks = [e for e in entries.values() if isinstance(e, MemoryChunkContent)]
    assert chunks == []


def test_serialize_restore_round_trip():
    image = advance_memory(new_memory_image(3 * MB, seed=9, churn_rate=0.2), 2)
    tree = FileTree(serialize_memory(image, 1 * MB))
    assert restore_memory(tree) == image


@settings(max_examples=200, deadline=None)
@given(pages=st.integers(0, 40), page_size=st.sampled_from([32, 96, 4096]),
       churn=st.sampled_from([0.0, 0.1, 0.5]), steps=st.integers(0, 3),
       seed=st.integers(0, 2**32), data=st.data())
def test_checkpoint_files_match_the_chunk_by_chunk_reference(pages, page_size, churn, steps,
                                                             seed, data):
    # Chunk sizes below a page, off a page multiple and on one.
    chunk_size = data.draw(st.integers(1, 6 * page_size)
                           | st.integers(1, 6).map(lambda k: k * page_size))
    image = advance_memory(
        new_memory_image(pages * page_size, seed, page_size=page_size, churn_rate=churn), steps)
    entries = serialize_memory(image, chunk_size, wire_ratio=0.5)
    reference = serialize_memory_by_chunk(image, chunk_size, wire_ratio=0.5)
    assert list(entries.items()) == list(reference.items())
    # Each chunk's epochs are a read-only view, and restore adopts the bytes they view.
    assert all(memoryview(e.epochs).readonly
               for e in entries.values() if isinstance(e, MemoryChunkContent))
    restored = restore_memory(FileTree(entries))
    assert restored == image
    assert restored.page_epochs is image.page_epochs
    assert serialize_memory(restored, chunk_size, wire_ratio=0.5) == entries


def test_memory_image_epochs_are_immutable():
    image = MemoryImage(seed=1, page_size=4096, epoch=0, page_epochs=bytes(32), churn_rate=0.5)
    stepped = advance_memory(image, 1)  # new epochs
    restored = restore_memory(FileTree(serialize_memory(stepped)))
    for held in (image, stepped, restored):
        assert type(held.page_epochs) is bytes
        with pytest.raises(TypeError):
            held.page_epochs[0] = 5


@pytest.mark.parametrize("epochs", [np.zeros(8, dtype="<u4"), np.zeros(8, dtype=">u4"),
                                    bytearray(32), memoryview(bytes(32)), [0] * 8],
                         ids=["little-endian array", "big-endian array", "bytearray",
                              "memoryview", "list"])
def test_memory_image_refuses_epochs_that_are_not_bytes(epochs):
    # An array would be read in the order of its own bytes, whatever its dtype says.
    with pytest.raises(TypeError, match="page_epochs must be bytes"):
        MemoryImage(seed=1, page_size=4096, epoch=0, page_epochs=epochs, churn_rate=0.5)


def test_memory_image_refuses_a_partial_page_epoch():
    with pytest.raises(ValueError, match="4 bytes per page"):
        MemoryImage(seed=1, page_size=4096, epoch=0, page_epochs=bytes(6), churn_rate=0.5)


def test_memory_images_that_differ_in_churn_rate_are_unequal():
    epochs = bytes(32)
    image = MemoryImage(seed=1, page_size=4096, epoch=0, page_epochs=epochs, churn_rate=0.5)
    other = MemoryImage(seed=1, page_size=4096, epoch=0, page_epochs=epochs, churn_rate=0.25)
    assert image != other


def test_restore_adopts_the_checkpointed_array():
    image = advance_memory(new_memory_image(3 * MB, seed=9, churn_rate=0.2), 2)
    restored = restore_memory(FileTree(serialize_memory(image, 1 * MB)))
    assert restored == image
    # The very bytes, immutable, so comparing the two images reads no page.
    assert restored.page_epochs is image.page_epochs
    assert type(restored.page_epochs) is bytes


def test_view_chunks_equal_bytes_chunks():
    image = advance_memory(new_memory_image(5 * 4096, seed=4, churn_rate=0.4), 1)
    entries = serialize_memory(image, 2 * 4096)
    for path, written in serialize_memory_by_chunk(image, 2 * 4096).items():
        chunk = entries[path]
        assert chunk == written and hash(chunk) == hash(written)
        if isinstance(chunk, MemoryChunkContent):
            assert type(written.epochs) is bytes and type(chunk.epochs) is memoryview
            assert chunk._cut_from is not None and written._cut_from is None
            assert replace(chunk)._cut_from is None  # a replaced chunk claims no epochs


def checkpoint_tree(chunks: list, meta: LiteralContent) -> FileTree:
    """A checkpoint holding ``chunks`` in path order, and ``meta``."""
    entries = {f"checkpoint/mem-{i:05d}.img": chunk for i, chunk in enumerate(chunks)}
    entries["checkpoint/meta.json"] = meta
    return FileTree(entries)


CHUNK_EDITS = {
    "seed": lambda chunk, k: replace(chunk, seed=chunk.seed + k),
    "page_size": lambda chunk, k: replace(chunk, page_size=chunk.page_size * (k + 1)),
    "start_page": lambda chunk, k: replace(chunk, start_page=chunk.start_page + k),
    "same": lambda chunk, k: replace(chunk),
    "shorter": lambda chunk, k: replace(chunk, epochs=bytes(chunk.epochs)[:-k]),
    "longer": lambda chunk, k: replace(chunk, epochs=bytes(chunk.epochs) + bytes(k)),
    "other epochs": lambda chunk, k: replace(
        chunk, epochs=bytes(b ^ k for b in bytes(chunk.epochs))),
}


@settings(max_examples=300, deadline=None)
@given(pages=st.integers(0, 24), page_size=st.sampled_from([32, 96]),
       chunk_pages=st.integers(1, 5), other_seed=st.booleans(), data=st.data())
def test_restore_matches_the_join_oracle(pages, page_size, chunk_pages, other_seed, data):
    # Chunks of two images of one size, mixed, dropped, duplicated,
    # permuted and edited: restore returns what the join returns, or
    # raises the same error, and holds an image's epoch bytes exactly
    # when every chunk is one that a checkpoint of those bytes wrote.
    a = advance_memory(new_memory_image(pages * page_size, 1, page_size=page_size,
                                        churn_rate=0.3), 1)
    b = (new_memory_image(pages * page_size, 2, page_size=page_size) if other_seed
         else advance_memory(a, 1))
    b_pages = data.draw(st.sampled_from([chunk_pages, chunk_pages + 1]))
    a_group = serialize_memory(a, chunk_pages * page_size)
    a_chunks = [e for e in a_group.values() if isinstance(e, MemoryChunkContent)]
    b_chunks = [e for e in serialize_memory(b, b_pages * page_size).values()
                if isinstance(e, MemoryChunkContent)]
    chunks = list(a_chunks)
    edits = st.sampled_from(["mix", "drop", "duplicate", "permute", "edit"])
    for edit in data.draw(st.lists(edits, max_size=4)):
        if not chunks:
            break
        i = data.draw(st.integers(0, len(chunks) - 1))
        if edit == "mix" and b_chunks:
            chunks[i] = b_chunks[min(i, len(b_chunks) - 1)]
        elif edit == "drop":
            del chunks[i]
        elif edit == "duplicate":
            chunks.insert(data.draw(st.integers(0, len(chunks))), chunks[i])
        elif edit == "permute":
            chunks = data.draw(st.permutations(chunks))
        elif edit == "edit":
            change = CHUNK_EDITS[data.draw(st.sampled_from(sorted(CHUNK_EDITS)))]
            chunks[i] = change(chunks[i], data.draw(st.integers(1, 3)))
    tree = checkpoint_tree(chunks, a_group["checkpoint/meta.json"])
    try:
        expected = restore_memory_by_join(tree)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            restore_memory(tree)
        assert str(caught.value) == str(exc)
        event(f"refused: {exc}".split(",")[0])
        return
    restored = restore_memory(tree)
    assert restored == expected
    assert type(restored.page_epochs) is bytes
    adopted = []
    for image in (a, b):
        # b shares a's bytes when its churn step touches no page.
        written = [w for other, ws in ((a, a_chunks), (b, b_chunks))
                   if other.page_epochs is image.page_epochs for w in ws]
        adopts = bool(chunks) and all(any(c is w for w in written) for c in chunks)
        # Every empty bytes object is the same one.
        assert (restored.page_epochs is image.page_epochs) == adopts or image.pages == 0
        adopted.append(adopts)
    event("restored by adoption" if any(adopted) else "restored by a join")


def test_restore_of_a_checkpoint_prefix_is_a_copy():
    # Chunks cut from one epoch bytes that tile only its first pages, under
    # a meta.json that counts just those pages: the bytes are too long to adopt.
    image = advance_memory(new_memory_image(10 * 4096, seed=5, churn_rate=0.5), 1)
    group = serialize_memory(image, 4 * 4096)
    meta = json.loads(group["checkpoint/meta.json"].data)
    chunks = [group["checkpoint/mem-00000.img"], group["checkpoint/mem-00001.img"]]
    tree = checkpoint_tree(chunks, LiteralContent(json.dumps({**meta, "pages": 8}).encode()))
    restored = restore_memory(tree)
    assert restored == restore_memory_by_join(tree)
    assert restored.page_epochs == image.page_epochs[:4 * 8]


def test_checkpoint_by_reference_allocates_a_fraction_of_the_epochs():
    image = new_memory_image(600 * MB, seed=3)  # 146,485 pages: 586 KB of epochs
    serialize_memory(image)  # names the chunk paths, once per process
    group, serialize_peak = traced_peak(serialize_memory, image)
    restored, restore_peak = traced_peak(restore_memory, FileTree.of_groups(group))
    assert restored.page_epochs is image.page_epochs
    assert serialize_peak < 0.25 * len(image.page_epochs)
    assert restore_peak < 0.1 * len(image.page_epochs)


def test_restore_rejects_missing_chunks():
    image = new_memory_image(3 * MB, seed=9)
    entries = serialize_memory(image, 1 * MB)
    tree = FileTree(entries).without(["checkpoint/mem-00001.img"])
    with pytest.raises(ValueError):
        restore_memory(tree)


def test_churned_checkpoint_delta_transfers_about_ten_percent():
    # Serialize, churn 10% of pages for one epoch, serialize again; the
    # delta engine should ship roughly that fraction as literals.
    image = new_memory_image(8 * MB, seed=11, churn_rate=0.1)
    old = FileTree(serialize_memory(image, 2 * MB))
    new = FileTree(serialize_memory(advance_memory(image, 1), 2 * MB))
    from layermig.delta_sync import sync_tree

    _, stats = sync_tree(old, new, 2048)
    fraction = stats.literal_bytes / image.total_bytes
    assert 0.05 <= fraction <= 0.2


def test_memory_chunk_content_matches_image_slice():
    image = advance_memory(new_memory_image(2 * MB, seed=12, churn_rate=0.3), 1)
    entries = serialize_memory(image, 1 * MB)
    whole = materialize_memory(image)
    offset = 0
    for path in sorted(p for p, e in entries.items() if isinstance(e, MemoryChunkContent)):
        chunk = entries[path]
        blob = materialize_entry(path, chunk)
        assert blob == whole[offset:offset + chunk.length]
        offset += chunk.length
    assert offset == len(whole)
