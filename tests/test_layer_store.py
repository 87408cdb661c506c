import math
import posixpath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermig.delta_sync import (
    Created,
    Deleted,
    Patched,
    apply_tree_delta,
    compute_delta,
    compute_signature,
    sync_tree,
)
from layermig.layer_store import (
    DEFAULT_CHUNK_SIZE,
    FileTree,
    Layer,
    LayerKind,
    LiteralContent,
    MemoryChunkContent,
    SyntheticContent,
    advance_memory,
    clone_layer,
    materialize,
    materialize_entry,
    materialize_memory,
    new_memory_image,
    normalize_path,
    restore_memory,
    serialize_memory,
    synthetic_files,
    tree_manifest,
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


def test_manifest_round_trip_is_stable():
    tree = FileTree(synthetic_files("base", 64 * 1024, seed=5, max_file_bytes=16 * 1024))
    assert tree_manifest(tree) == tree_manifest(tree)


# --- layers ---------------------------------------------------------------------


def make_layer(kind=LayerKind.BASE, seed=1, size=32 * 1024):
    return Layer(id=f"{kind.value}-{seed}", kind=kind,
                 tree=FileTree(synthetic_files("base", size, seed=seed)))


def test_clone_layer_preserves_content():
    base = make_layer()
    clone = clone_layer(base, LayerKind.APPLICATION)
    assert clone.kind is LayerKind.APPLICATION
    assert clone.parent_id == base.id
    assert clone.id != base.id
    assert materialize(clone.tree) == materialize(base.tree)


def test_clone_layer_rejects_invalid_transition():
    instance = make_layer(LayerKind.INSTANCE)
    with pytest.raises(ValueError):
        clone_layer(instance, LayerKind.BASE)
    app = make_layer(LayerKind.APPLICATION)
    with pytest.raises(ValueError):
        clone_layer(app, LayerKind.APPLICATION)


def test_clone_layer_shares_the_tree():
    base = make_layer()
    assert clone_layer(base, LayerKind.APPLICATION).tree is base.tree


def test_clone_extension_does_not_touch_source():
    base = make_layer()
    clone = clone_layer(base, LayerKind.APPLICATION)
    extended = clone.tree.with_entries({"app/new.bin": SyntheticContent(seed=9, length=100)})
    assert "app/new.bin" not in base.tree
    assert extended.is_superset_of(base.tree)


def test_clone_then_sync_transfers_only_new_data():
    # The pseudo-incremental scheme: clone the lower layer, then the delta
    # engine moves just the higher layer's unique bytes.
    from layermig.delta_sync import sync_tree

    base = make_layer(size=64 * 1024)
    clone = clone_layer(base, LayerKind.APPLICATION)
    unique = {"app/u.bin": SyntheticContent(seed=42, length=8 * 1024)}
    app_tree = base.tree.with_entries(unique)
    _, stats = sync_tree(clone.tree, app_tree)
    assert stats.literal_bytes == 8 * 1024
    assert stats.files_created == 1
    # Wire cost is the unique data plus small per-file overheads only.
    assert stats.wire_bytes < 8 * 1024 + 64 * (len(app_tree) + 1)


def test_superset_invariant_checked_exhaustively():
    base = make_layer(size=48 * 1024)
    app = clone_layer(base, LayerKind.APPLICATION)
    app_tree = app.tree.with_entries({"app/a.bin": SyntheticContent(seed=3, length=100)})
    for path, entry in base.tree.items():
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


def ref_subtree(tree, prefix):
    prefix = normalize_path(prefix) + "/"
    return FileTree({p: e for p, e in tree.items() if p.startswith(prefix)})


def ref_split(tree, prefix):
    prefix = normalize_path(prefix) + "/"
    inside = {}
    outside = {}
    for p, e in tree.items():
        (inside if p.startswith(prefix) else outside)[p] = e
    return FileTree(inside), FileTree(outside)


def ref_apply_tree_delta(basis, delta):
    out = dict(basis.items())
    for path, op in delta.entries:
        if isinstance(op, Deleted):
            out.pop(path, None)
        elif isinstance(op, (Created, Patched)):
            out[path] = op.target
    return FileTree(out)


def assert_same_tree(tree, ref):
    assert tree == ref
    assert tree.paths() == ref.paths()
    assert list(tree.items()) == list(ref.items())


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
@given(base=ENTRIES, extra=ENTRIES, drop=st.lists(SPELLINGS, max_size=6), prefix=SPELLINGS)
def test_derived_trees_match_trees_built_from_scratch(base, extra, drop, prefix):
    tree = FileTree(base)
    assert_same_tree(tree.with_entries(extra), ref_with_entries(tree, extra))
    assert_same_tree(tree.without(drop), ref_without(tree, drop))
    assert_same_tree(tree.subtree(prefix), ref_subtree(tree, prefix))
    inside, outside = tree.split(prefix)
    ref_inside, ref_outside = ref_split(tree, prefix)
    assert_same_tree(inside, ref_inside)
    assert_same_tree(outside, ref_outside)


@settings(max_examples=150, deadline=None)
@given(basis=ENTRIES, target=ENTRIES)
def test_apply_tree_delta_matches_tree_built_from_scratch(basis, target):
    basis, target = FileTree(basis), FileTree(target)
    delta, _ = sync_tree(basis, target)
    assert [path for path, _ in delta.entries] == sorted(set(basis.paths()) | set(target.paths()))
    synced = apply_tree_delta(basis, delta)
    assert_same_tree(synced, ref_apply_tree_delta(basis, delta))
    assert_same_tree(synced, target)


def test_with_entries_normalizes_only_its_extra_paths():
    tree = FileTree({"a/b": LiteralContent(b"1")})
    merged = tree.with_entries({"/z//y": LiteralContent(b"2"), "./a/./b": LiteralContent(b"3")})
    assert merged.paths() == ["a/b", "z/y"]
    assert merged.get("a/b") == LiteralContent(b"3")
    with pytest.raises(ValueError):
        tree.with_entries({"../x": LiteralContent(b"4")})


@pytest.mark.parametrize("prefix", ["p", "/p/", "./p"])
def test_split_takes_only_the_paths_under_the_prefix(prefix):
    # "." sorts just before "/", and "0" just after it: the neighbours of the range.
    names = ["o/z", "p", "p.x", "p/a", "p/b/c", "p0", "p0/a", "pz/a", "q"]
    tree = FileTree({name: LiteralContent(name.encode()) for name in names})
    inside, outside = tree.split(prefix)
    assert inside.paths() == ["p/a", "p/b/c"]
    assert outside.paths() == ["o/z", "p", "p.x", "p0", "p0/a", "pz/a", "q"]
    assert tree.subtree(prefix) == inside
    assert FileTree().split(prefix) == (FileTree(), FileTree())


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
    assert int((stepped.page_epochs == 1).sum()) == 250


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
