"""Synthetic file trees and churning in-memory images: the content of a
guest's base, application and instance trees and of its memory.

Content never lives on disk: every file is a descriptor whose bytes are
a pure function of its fields, generated from counter-mode Philox
streams.  That keeps trees cheap to build and clone at any scale while
still materializing to real, incompressible bytes whenever the delta
engine needs them.

A :class:`FileTree` holds its entries in groups, one per top-level
directory (``base/``, ``app/``, ``data/``, ``inst/``, ``virt/``) or
file at the root, and trees derived from one another share every group
they leave unchanged, as git trees and copy-on-write image layers share
what they do not change.  A guest's base, application and instance
trees hold its base files as one group, and copying, comparing or
syncing two trees costs per group that differs, not per file of the
base.

A checkpoint is a tree of its own, as CRIU dumps to an image directory
of its own: every path of it lies under ``CHECKPOINT_PREFIX``, and no
layer tree holds one.

A layer's files travel as one group from the moment they are made:
:func:`synthetic_files` and :func:`serialize_memory` return a
:class:`TreeGroup` already in path order, :meth:`FileTree.of_groups`
builds a tree of such groups without looking at their paths, and a
tree delta carries a group its basis lacks as the same object.

A memory image's page epochs travel the same way, from suspend to
restore.  They are one immutable ``bytes`` object, four little-endian
bytes per page: :func:`serialize_memory` cuts the checkpoint's chunks
as ``memoryview`` slices of it, and :func:`restore_memory` adopts it
again once its checks show that the chunks that arrived tile it.  The
epochs are joined into new bytes only when the chunks were not all cut
from one object, as after a sync onto a stale instance, which keeps the
stale image's unchanged chunks.

Only the code that computes with arrays imports numpy, inside the
function: content rendering and :func:`advance_memory`.  Building,
checkpointing, comparing and restoring trees and images uses none of
it, so a migration that renders no content never imports numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import posixpath
import threading
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, ItemsView, Iterator, Mapping

if TYPE_CHECKING:
    import numpy as np

DEFAULT_PAGE_SIZE = 4096
DEFAULT_CHUNK_SIZE = 4 * 1024 * 1024
# Every path of a checkpoint tree lies under this directory; the VM save
# file's bytes are keyed by its path.
CHECKPOINT_PREFIX = "checkpoint"
VM_STATE_FILE = f"{CHECKPOINT_PREFIX}/vmstate.img"
MEMORY_META_FILE = f"{CHECKPOINT_PREFIX}/meta.json"
_STREAM_BLOCK = 32  # bytes produced per Philox counter increment


def _stream_key(*parts: object) -> np.ndarray:
    import numpy as np

    material = "\x1f".join(str(p) for p in parts).encode()
    digest = hashlib.blake2b(material, digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


_WORD = 2**64 - 1
_THREAD = threading.local()


def _philox(key: np.ndarray, counter: int) -> np.random.Philox:
    """This thread's Philox bit generator, in the state a new
    ``Philox(key=key, counter=counter)`` starts in.

    The constructor also draws an OS-entropy seed sequence that the key
    then overrides; setting the state of one generator per thread costs
    a fifth of that.  The generator is made on the first render, so a
    process that renders no content never imports numpy.
    """
    try:
        bg = _THREAD.philox
    except AttributeError:
        import numpy as np

        bg = _THREAD.philox = np.random.Philox(0)
    bg.state = {
        "bit_generator": "Philox",
        "state": {"key": key, "counter": (counter & _WORD, counter >> 64 & _WORD,
                                          counter >> 128 & _WORD, counter >> 192)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # empty: the next draw runs the counter
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bg


def _stream_bytes(key: np.ndarray, length: int, offset: int = 0) -> bytes:
    """``length`` deterministic pseudo-random bytes of the stream keyed by
    ``key``, from byte ``offset`` on.

    Philox yields 32 bytes per counter increment, so the render starts
    at the counter of the 32-byte block holding ``offset`` and trims the
    bytes before it: any range equals the same slice of a render from 0.
    """
    if length <= 0:
        return b""
    import numpy as np

    skip = offset % _STREAM_BLOCK
    bg = _philox(key, offset // _STREAM_BLOCK)
    words = bg.random_raw(math.ceil((skip + length) / 8)).astype("<u8", copy=False)
    return words.view(np.uint8)[skip:skip + length].tobytes()


# --- content descriptors ----------------------------------------------------


@dataclass(frozen=True)
class LiteralContent:
    """Explicit bytes, for small metadata files."""

    data: bytes
    wire_ratio: float = 1.0

    @property
    def length(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class SyntheticContent:
    """Pseudo-random bytes keyed by (seed, path, epoch).

    ``wire_ratio`` is the modeled on-the-wire cost per literal byte when
    this content is transferred (compression, or expansion for content
    that syncs badly); it does not affect the bytes themselves.
    """

    seed: int
    length: int
    epoch: int = 0
    wire_ratio: float = 1.0


@dataclass(frozen=True, init=False)
class MemoryChunkContent:
    """A slice of a serialized memory image: whole pages, lazily rendered.

    ``epochs`` holds one little-endian uint32 per page, from page
    ``start_page`` on, as any bytes-like object.  :func:`serialize_memory`
    gives each chunk a ``memoryview`` slice of the image's own epoch
    bytes, no copy, and privately records those bytes on the chunk, so
    that :func:`restore_memory` can adopt them; a chunk made any other
    way, by this constructor or by ``dataclasses.replace``, carries no
    record.  Equality compares values, so a view chunk equals a
    ``bytes`` chunk of the same fields.  Each page's bytes depend only
    on (seed, page index, that page's epoch), so a chunk's content is
    stable wherever its pages are unchanged.
    """

    seed: int
    page_size: int
    start_page: int
    epochs: bytes | memoryview
    wire_ratio: float = 1.0

    length: int = field(init=False, repr=False, compare=False)  # whole pages, in bytes
    _cut_from = None  # the epoch bytes serialize_memory cut the chunk from

    def __init__(self, seed: int, page_size: int, start_page: int, epochs: bytes | memoryview,
                 wire_ratio: float = 1.0):
        # A checkpoint makes one chunk per 4 MiB of RAM: one dict update
        # costs half of the six object.__setattr__ calls of a frozen
        # dataclass's own __init__, and a stored length is read at C
        # speed where a tree sums its files' lengths.
        self.__dict__.update(seed=seed, page_size=page_size, start_page=start_page,
                             epochs=epochs, wire_ratio=wire_ratio,
                             length=len(epochs) // 4 * page_size)

    def __hash__(self) -> int:
        # Hashing the epochs would read every page's; equal chunks have equal lengths.
        return hash((self.seed, self.page_size, self.start_page, self.length, self.wire_ratio))


ContentDescriptor = LiteralContent | SyntheticContent | MemoryChunkContent


def _page_run_bytes(
    seed: int, page_size: int, start_page: int, epochs: bytes | memoryview, start: int, stop: int
) -> bytes:
    """Bytes ``[start, stop)`` of the pages whose epochs are ``epochs``,
    one little-endian uint32 per page, the first of them being page
    ``start_page``.

    Only the pages the range covers are rendered, one stream per run of
    equal epochs, and the runs are joined once.
    """
    if start >= stop:
        return b""
    import numpy as np

    epochs = np.frombuffer(epochs, dtype="<u4")
    first, last = start // page_size, -(-stop // page_size)
    covered = epochs[first:last]
    cuts = (np.flatnonzero(covered[1:] != covered[:-1]) + first + 1).tolist()
    parts = []
    for i, j in zip([first, *cuts], [*cuts, last]):
        lo, hi = max(start, i * page_size), min(stop, j * page_size)
        key = _stream_key("layermig.mem", seed, int(epochs[i]))
        parts.append(_stream_bytes(key, hi - lo, offset=start_page * page_size + lo))
    return b"".join(parts)


def materialize_entry(
    path: str, entry: ContentDescriptor, start: int = 0, stop: int | None = None
) -> bytes:
    """Render bytes ``[start, stop)`` of one descriptor, by default all of
    them.  Pure and deterministic.

    A range costs only what it covers: synthetic content starts its
    stream at the range, a memory chunk renders only the pages the range
    touches, and literal content is sliced.  Every range equals the same
    slice of the whole render, so callers can stream a file of any size
    through a bounded buffer.  ``stop`` is clipped to the content length.
    """
    if start < 0:
        raise ValueError(f"range start must be >= 0, got {start}")
    stop = entry.length if stop is None else min(stop, entry.length)
    if isinstance(entry, LiteralContent):
        return entry.data[start:stop]
    if isinstance(entry, SyntheticContent):
        key = _stream_key("layermig.file", entry.seed, path, entry.epoch)
        return _stream_bytes(key, stop - start, offset=start)
    return _page_run_bytes(entry.seed, entry.page_size, entry.start_page, entry.epochs,
                           start, stop)


# --- file trees --------------------------------------------------------------


def normalize_path(path: str) -> str:
    """``path`` relative to the tree root, with "/" separators and no
    empty, "." or ".." segment.  Raises ValueError for a path that is
    empty or leaves the root.

    A path with no "\\", no empty segment and no segment that begins
    with "." is already normal and is returned as it is; only the others
    go through :func:`posixpath.normpath`.
    """
    if (
        path
        and path[0] not in "/."
        and path[-1] != "/"
        and "//" not in path
        and "/." not in path
        and "\\" not in path
    ):
        return path
    norm = posixpath.normpath(path.replace("\\", "/")).lstrip("/")
    if norm in ("", ".", "..") or norm.startswith("../"):
        raise ValueError(f"invalid tree path: {path!r}")
    return norm


class TreeGroup(dict):
    """One group of a :class:`FileTree`: the entries of one top-level
    directory, or one file at the root, in path order.

    A group is filled once, when it is made, and never changed after a
    tree holds it, so trees share it by reference.  Its total length is
    computed on first use and kept.
    """

    __slots__ = ("_length",)

    @property
    def length(self) -> int:
        try:
            return self._length
        except AttributeError:
            self._length = sum(map(_LENGTH, self.values()))
            return self._length


_LENGTH = attrgetter("length")


def _group_key(path: str) -> str:
    """The group of a normalized path: its top-level directory with a
    trailing "/", or the path itself for a file at the root."""
    return path[:path.find("/") + 1] or path


def _grouped(entries: Mapping[str, ContentDescriptor]) -> dict[str, TreeGroup]:
    """Groups of ``entries``, whose paths are normalized, filled in path
    order.  The paths of one group are one run of the sorted paths, and
    the groups come in key order: "/" sorts the same in a key as in the
    paths under it.
    """
    groups: dict[str, TreeGroup] = {}
    for path in sorted(entries):
        key = _group_key(path)
        if key not in groups:
            groups[key] = TreeGroup()
        groups[key][path] = entries[path]
    return groups


def _normalized(entries: Mapping[str, ContentDescriptor]) -> dict[str, ContentDescriptor]:
    """``entries`` keyed by their paths as :func:`normalize_path` gives them."""
    return {normalize_path(path): entry for path, entry in entries.items()}


class FileTree:
    """Immutable map of normalized path -> content descriptor, held as
    groups that trees share.

    Invariant: every path is normalized (see :func:`normalize_path`).
    The entries are held in :class:`TreeGroup` dicts, none of them
    empty: one per top-level directory ``d``, keyed ``d/``, and one per
    file at the root, keyed by its path.  The groups are held in key
    order and each holds its entries in path order, so iteration yields
    every path in sorted order.  Only the constructor and the mapping
    form of :meth:`with_entries` normalize the paths they store, and
    only the constructor takes arbitrary input; every other method,
    :meth:`of_groups` among them, builds its tree from groups that
    already hold the invariant.  :meth:`get` and ``in`` look a path up
    as given, so they take normalized paths: ``"./a/b"`` is not held
    where ``"a/b"`` is.  :meth:`without` normalizes every path it is
    given.

    A derived tree copies only the groups it changes and shares the
    rest by reference: the base layer's ``base/`` group is one object in
    the base, application and instance trees of a guest, and in every
    tree a migration derives from them.  Equality compares groups, which
    short-cuts on shared ones.
    """

    __slots__ = ("_groups",)

    def __init__(self, entries: Mapping[str, ContentDescriptor] | None = None):
        self._groups = _grouped(_normalized(entries or {}))

    @classmethod
    def _of(cls, groups: dict[str, TreeGroup]) -> "FileTree":
        """Adopt groups that already hold the invariant, as they are."""
        tree = cls.__new__(cls)
        tree._groups = groups
        return tree

    @classmethod
    def of_groups(cls, *groups: TreeGroup) -> "FileTree":
        """A tree that holds ``groups`` by reference, each under the key
        of its first path; an empty one is skipped.

        Each group must hold one group's normalized paths in path order,
        as :func:`synthetic_files` and :func:`serialize_memory` make
        them: no path is read but each group's first, so building a tree
        costs per group, not per file.  Raises ValueError if two groups
        share a key.
        """
        keyed = {_group_key(next(iter(group))): group for group in groups if group}
        if len(keyed) < sum(map(bool, groups)):
            raise ValueError("two groups share a key")
        return cls._of(dict(sorted(keyed.items())))

    def groups(self) -> ItemsView[str, TreeGroup]:
        """(key, group) pairs in key order; callers must not change a group."""
        return self._groups.items()

    def group(self, key: str) -> TreeGroup | None:
        return self._groups.get(key)

    def get(self, path: str) -> ContentDescriptor | None:
        group = self._groups.get(_group_key(path))
        return None if group is None else group.get(path)

    def paths(self) -> list[str]:
        return list(chain.from_iterable(self._groups.values()))

    def items(self) -> Iterator[tuple[str, ContentDescriptor]]:
        return chain.from_iterable(map(dict.items, self._groups.values()))

    def __len__(self) -> int:
        return sum(map(len, self._groups.values()))

    def __contains__(self, path: str) -> bool:
        return self.get(path) is not None

    def __eq__(self, other: object) -> bool:
        # Dict equality tests identity first, so a shared group costs one check.
        return isinstance(other, FileTree) and self._groups == other._groups

    def __repr__(self) -> str:
        return f"FileTree({len(self)} entries, {self.total_length} bytes)"

    @property
    def total_length(self) -> int:
        return sum(group.length for group in self._groups.values())

    def with_entries(self, extra: Mapping[str, ContentDescriptor] | FileTree) -> FileTree:
        """This tree with ``extra`` added, replacing what it holds at the
        same paths.  A FileTree's groups are taken as they are; a
        mapping's paths are normalized and grouped first.

        A group of ``extra`` that holds every path of this tree's group
        of the same key replaces it whole, so an added group is shared,
        not copied; only a group both sides partly hold is merged.
        """
        if isinstance(extra, FileTree):
            added = extra._groups
        else:
            added = _grouped(_normalized(extra))
        groups = dict(self._groups)
        for key, group in added.items():
            held = groups.get(key)
            if held is None or held.keys() <= group.keys():
                groups[key] = group
                continue
            merged = TreeGroup(held)
            merged.update(group)
            if not group.keys() <= held.keys():  # a path was added, so sort
                merged = TreeGroup(sorted(merged.items()))
            groups[key] = merged
        if not added.keys() <= self._groups.keys():
            groups = dict(sorted(groups.items()))
        return FileTree._of(groups)

    def without(self, paths: list[str]) -> "FileTree":
        """This tree less ``paths``, each normalized first; each group
        that loses a path is copied once, and one that loses all of them
        is dropped."""
        groups = dict(self._groups)
        copied = set()
        for path in map(normalize_path, paths):
            key = _group_key(path)
            group = groups.get(key)
            if group is None or path not in group:
                continue
            if key not in copied:
                copied.add(key)
                group = groups[key] = TreeGroup(group)
            del group[path]
            if not group:
                del groups[key]
        return FileTree._of(groups)


def synthetic_files(
    prefix: str,
    total_bytes: int,
    seed: int,
    *,
    wire_ratio: float = 1.0,
    max_file_bytes: int = DEFAULT_CHUNK_SIZE,
    epoch: int = 0,
) -> TreeGroup:
    """Chunk ``total_bytes`` of synthetic content into files under
    ``prefix``: one :class:`TreeGroup`, in path order, that
    :meth:`FileTree.of_groups` adopts as it is.

    Content is keyed by (seed, path, epoch), so every full-size file
    shares one descriptor; only a shorter last file gets its own.  The
    prefix is normalized once, and the full paths are formatted once per
    process and reused, hash and all (see :func:`_numbered`).
    """
    prefix = normalize_path(prefix)
    full, rest = divmod(max(total_bytes, 0), max_file_bytes)
    paths = _numbered(_escaped(prefix) + "/f{:05d}.bin", full + bool(rest))
    shared = SyntheticContent(seed=seed, length=max_file_bytes, epoch=epoch, wire_ratio=wire_ratio)
    group = TreeGroup.fromkeys(islice(paths, full), shared)
    if rest:
        group[paths[full]] = SyntheticContent(
            seed=seed, length=rest, epoch=epoch, wire_ratio=wire_ratio
        )
    return _in_path_order(group)


_NUMBERED: dict[str, list[str]] = {}


def _numbered(template: str, count: int) -> list[str]:
    """A list whose first ``count`` items are ``template`` formatted with
    0 to ``count - 1``: "base/f00000.bin", "base/f00001.bin" and on.
    Each name is formatted once per process and reused, with its hash."""
    names = _NUMBERED.setdefault(template, [])
    names.extend(map(template.format, range(len(names), count)))
    return names


def _escaped(prefix: str) -> str:
    """``prefix`` as literal text of a :func:`_numbered` template."""
    return prefix.replace("{", "{{").replace("}", "}}")


# Indices up to 99999 take five digits and sort in index order; six
# digits sort out of it ("f100000" sorts before "f10001").
_FIVE_DIGITS = 100_000


def _in_path_order(group: TreeGroup) -> TreeGroup:
    """``group``, filled in index order, as a group in path order."""
    return group if len(group) <= _FIVE_DIGITS else TreeGroup(sorted(group.items()))


# --- memory images ------------------------------------------------------------


@dataclass(frozen=True)
class MemoryImage:
    """Guest RAM as pages whose content churns over discrete epochs.

    Page content is a pure function of (seed, page index, the epoch the
    page was last modified in), so two images with equal fields
    materialize to identical bytes.  Equality compares every field, the
    churn rate included, and a field that both images hold as one
    object compares without a read: an image restored from chunks that
    arrived as they were cut holds its source's very epoch bytes.

    ``page_epochs`` holds each page's epoch as four little-endian bytes,
    in one ``bytes`` object, which no one can change: an image that
    guests and migrations share cannot be changed through it.  That is
    what lets a checkpoint hand the epochs on by reference: the chunks
    of :func:`serialize_memory` are views of them, and the image
    :func:`restore_memory` returns from those chunks may hold that same
    object.  Any other type of ``page_epochs`` raises TypeError: the raw
    bytes of an array follow its own dtype, which the chunks would
    misread.
    """

    seed: int
    page_size: int
    epoch: int
    page_epochs: bytes  # little-endian uint32, one entry per page
    churn_rate: float

    def __post_init__(self):
        if self.page_size <= 0 or self.page_size % _STREAM_BLOCK:
            raise ValueError("page_size must be a positive multiple of 32")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError("churn_rate must be within [0, 1]")
        if not isinstance(self.page_epochs, bytes):
            raise TypeError(f"page_epochs must be bytes, got {type(self.page_epochs).__name__}")
        if len(self.page_epochs) % 4:
            raise ValueError("page_epochs must hold 4 bytes per page")

    @property
    def pages(self) -> int:
        return len(self.page_epochs) // 4

    @property
    def total_bytes(self) -> int:
        return self.page_size * self.pages


def new_memory_image(
    total_bytes: int,
    seed: int,
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
    churn_rate: float = 0.0,
) -> MemoryImage:
    pages = math.ceil(total_bytes / page_size)
    return MemoryImage(
        seed=seed,
        page_size=page_size,
        epoch=0,
        page_epochs=bytes(4 * pages),
        churn_rate=float(churn_rate),  # written to the checkpoint metadata as a float
    )


def advance_memory(image: MemoryImage, steps: int) -> MemoryImage:
    """Advance the churn clock: each step rewrites round(churn_rate * pages)
    pages, chosen by a seeded draw so the sequence is reproducible.  An
    image whose steps touch no page keeps its epoch bytes."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return image
    count = round(image.churn_rate * image.pages)
    page_epochs = image.page_epochs
    if count:
        import numpy as np

        epochs = np.frombuffer(page_epochs, dtype="<u4").copy()
        for epoch in range(image.epoch + 1, image.epoch + steps + 1):
            key = _stream_key("layermig.churn", image.seed, epoch)
            touched = np.random.Generator(np.random.Philox(key=key)).choice(
                image.pages, size=count, replace=False)
            epochs[touched] = epoch
        page_epochs = epochs.tobytes()
    return MemoryImage(image.seed, image.page_size, image.epoch + steps, page_epochs,
                       image.churn_rate)


def serialize_memory(
    image: MemoryImage,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    wire_ratio: float = 1.0,
) -> TreeGroup:
    """Render the image as checkpoint files: ceil(pages / chunk pages)
    page-aligned chunks ``checkpoint/mem-NNNNN.img`` plus a small
    ``checkpoint/meta.json``, as one :class:`TreeGroup` in path order,
    ready for a checkpoint tree to adopt.

    A chunk holds ``chunk_size // page_size`` pages, at least one; the
    last holds what is left.  Nothing is copied: each chunk's ``epochs``
    is a ``memoryview`` slice of its pages in the image's epoch bytes,
    and the chunk records those bytes for :func:`restore_memory`.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    pages_per_chunk = max(1, chunk_size // image.page_size)
    epochs = image.page_epochs
    view = memoryview(epochs)
    step = 4 * pages_per_chunk
    views = [view[i:i + step] for i in range(0, len(view), step)]
    chunks = list(map(MemoryChunkContent, repeat(image.seed), repeat(image.page_size),
                      range(0, image.pages, pages_per_chunk), views, repeat(wire_ratio)))
    for chunk in chunks:
        chunk.__dict__["_cut_from"] = epochs
    paths = _numbered(CHECKPOINT_PREFIX + "/mem-{:05d}.img", len(chunks))
    group = TreeGroup(zip(paths, chunks))
    meta = {
        "seed": image.seed,
        "page_size": image.page_size,
        "pages": image.pages,
        "epoch": image.epoch,
        "churn_rate": image.churn_rate,
        "chunk_pages": pages_per_chunk,
    }
    # "meta.json" sorts after every "mem-" chunk.
    group[MEMORY_META_FILE] = LiteralContent(
        data=json.dumps(meta, sort_keys=True).encode()
    )
    return _in_path_order(group)


# Fields of the metadata that restore_memory reads as JSON integers,
# each with its floor; "churn_rate" is a number, its range checked by
# MemoryImage.
_META_INTS = {"seed": -math.inf, "page_size": 1, "pages": 0, "epoch": 0}


def _checkpoint_meta(tree: FileTree) -> dict:
    """The checkpoint's ``meta.json``, parsed and checked."""
    entry = tree.get(MEMORY_META_FILE)
    if entry is None or not isinstance(entry, LiteralContent):
        raise ValueError("checkpoint metadata missing")
    meta = json.loads(entry.data.decode())  # a decode error is a ValueError
    if not isinstance(meta, dict):
        raise ValueError("checkpoint metadata is not a JSON object")
    for key, floor in _META_INTS.items():
        value = meta.get(key)
        if type(value) is not int or value < floor:
            raise ValueError(f"checkpoint metadata has {key} = {value!r}")
    if type(meta.get("churn_rate")) not in (int, float):
        raise ValueError(f"checkpoint metadata has churn_rate = {meta.get('churn_rate')!r}")
    return meta


def restore_memory(tree: FileTree) -> MemoryImage:
    """Rebuild a MemoryImage from a checkpoint tree: the files of
    :func:`serialize_memory`, and any other file, such as the VM save
    file, which is not a memory chunk and is passed over.

    ``meta.json`` must be a JSON object whose seed, page size, page
    count and epoch are integers (the last three not negative) and whose
    churn rate is a number.  The chunks are sorted by ``start_page``;
    every chunk must carry the seed and page size of the metadata and
    whole uint32 pages, and together they must cover pages 0 to
    ``pages - 1`` with no gap or overlap.  The checks run in that order,
    a partial page reported before a gap, and read only the chunks'
    fields and lengths.  When every chunk was cut from one epoch
    ``bytes`` of ``pages`` entries, they have just shown that the chunks
    tile it, and the image adopts that object; otherwise, as after a
    sync that patched some chunks of a stale checkpoint, the epochs are
    joined into new bytes.  Raises ValueError when a file is missing or
    a check fails.
    """
    meta = _checkpoint_meta(tree)
    chunks = sorted((entry for _, entry in tree.items() if isinstance(entry, MemoryChunkContent)),
                    key=attrgetter("start_page"))
    if any(chunk.seed != meta["seed"] or chunk.page_size != meta["page_size"] for chunk in chunks):
        raise ValueError("checkpoint chunk seed or page size differs from its metadata")
    blobs = [chunk.epochs for chunk in chunks]
    offsets = [0, *accumulate(map(len, blobs))]
    # Compared in bytes, the offsets also catch a chunk that holds a
    # partial page: every offset after it is off a page boundary.
    if [4 * chunk.start_page for chunk in chunks] != offsets[:-1] or offsets[-1] % 4:
        if any(len(blob) % 4 for blob in blobs):
            raise ValueError("checkpoint chunk holds a partial page")
        raise ValueError("checkpoint chunks are not contiguous")
    if offsets[-1] != 4 * meta["pages"]:
        raise ValueError(f"checkpoint covers {offsets[-1] // 4} pages, expected {meta['pages']}")
    cut_from = chunks[0]._cut_from if chunks else None
    if (cut_from is not None and len(cut_from) == offsets[-1]
            and all(chunk._cut_from is cut_from for chunk in chunks)):
        page_epochs = cut_from
    else:
        page_epochs = b"".join(blobs)
    return MemoryImage(meta["seed"], meta["page_size"], meta["epoch"], page_epochs,
                       meta["churn_rate"])
