"""Helpers the tests check the package against: whole renders of trees
and memory images, content streams from a new generator each,
checkpoint files built chunk by chunk and restored by one join, the
tracemalloc peak of a call, tree equality
in path order, the superset relation between trees, and the
byte-at-a-time weak checksum and its rolling update for the greedy
reference scan.  Each is linear in what it renders or walks, so use
them at small scales."""

import json
import math
import tracemalloc
from itertools import accumulate

import numpy as np

from layermig.delta_sync import WEAK_MOD, FileSignature
from layermig.layer_store import (
    FileTree,
    LiteralContent,
    MemoryChunkContent,
    MemoryImage,
    _page_run_bytes,
    materialize_entry,
)


def materialize(tree: FileTree) -> dict[str, bytes]:
    """Every file of ``tree``, rendered whole."""
    return {path: materialize_entry(path, entry) for path, entry in tree.items()}


def materialize_memory(image: MemoryImage) -> bytes:
    """All pages of ``image``, concatenated."""
    return _page_run_bytes(image.seed, image.page_size, 0, image.page_epochs, 0, image.total_bytes)


def stream_bytes_by_constructor(key: np.ndarray, length: int, offset: int = 0) -> bytes:
    """``layer_store._stream_bytes`` from a new ``Philox(key, counter)``
    per stream, as the package rendered content before it reused one
    generator per thread."""
    if length <= 0:
        return b""
    skip = offset % 32
    bg = np.random.Philox(key=key, counter=offset // 32)
    words = bg.random_raw(math.ceil((skip + length) / 8)).astype("<u8", copy=False)
    return words.view(np.uint8)[skip:skip + length].tobytes()


def traced_peak(fn, *args):
    """``fn(*args)`` and the tracemalloc peak of the call alone."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def serialize_memory_by_chunk(image: MemoryImage, chunk_size: int, *, wire_ratio: float = 1.0):
    """:func:`layer_store.serialize_memory`'s checkpoint files, each
    chunk's epochs taken from its own byte slice of the epoch bytes."""
    pages_per_chunk = max(1, chunk_size // image.page_size)
    entries = {}
    for index, start in enumerate(range(0, image.pages, pages_per_chunk)):
        stop = min(start + pages_per_chunk, image.pages)
        blob = image.page_epochs[4 * start:4 * stop]
        entries[f"checkpoint/mem-{index:05d}.img"] = MemoryChunkContent(
            seed=image.seed,
            page_size=image.page_size,
            start_page=start,
            epochs=blob,
            wire_ratio=wire_ratio,
        )
    meta = {
        "seed": image.seed,
        "page_size": image.page_size,
        "pages": image.pages,
        "epoch": image.epoch,
        "churn_rate": image.churn_rate,
        "chunk_pages": pages_per_chunk,
    }
    entries["checkpoint/meta.json"] = LiteralContent(
        data=json.dumps(meta, sort_keys=True).encode()
    )
    return entries


def restore_memory_by_join(tree: FileTree) -> MemoryImage:
    """:func:`layer_store.restore_memory` as a copy-always reference:
    the same checks with the same messages, over the checkpoint tree's
    chunks sorted by ``start_page``, then one join of every chunk's
    epochs."""
    meta = json.loads(tree.get("checkpoint/meta.json").data.decode())
    chunks = sorted((entry for _, entry in tree.items()
                     if isinstance(entry, MemoryChunkContent)), key=lambda c: c.start_page)
    if {(chunk.seed, chunk.page_size) for chunk in chunks} - {(meta["seed"], meta["page_size"])}:
        raise ValueError("checkpoint chunk seed or page size differs from its metadata")
    blobs = [chunk.epochs for chunk in chunks]
    offsets = [0, *accumulate(map(len, blobs))]
    if [4 * chunk.start_page for chunk in chunks] != offsets[:-1] or offsets[-1] % 4:
        if any(len(blob) % 4 for blob in blobs):
            raise ValueError("checkpoint chunk holds a partial page")
        raise ValueError("checkpoint chunks are not contiguous")
    if offsets[-1] != 4 * meta["pages"]:
        raise ValueError(f"checkpoint covers {offsets[-1] // 4} pages, expected {meta['pages']}")
    return MemoryImage(seed=meta["seed"], page_size=meta["page_size"], epoch=meta["epoch"],
                       page_epochs=b"".join(blobs),
                       churn_rate=meta["churn_rate"])


def assert_same_tree(tree: FileTree, ref: FileTree) -> None:
    """``tree`` equals ``ref``, path for path and in the same order."""
    assert tree == ref
    assert tree.paths() == ref.paths()
    assert list(tree.items()) == list(ref.items())


def is_superset(tree: FileTree, other: FileTree) -> bool:
    """Whether ``tree`` holds every path of ``other`` with the same descriptor."""
    return all(tree.get(path) == entry for path, entry in other.items())


def weak_checksum(block: bytes) -> tuple[int, int]:
    """The weak checksum of one block, one byte at a time: ``(a, b)``
    with a = sum(X) mod 2^16 and b = sum((n - i) * X[i]) mod 2^16 over
    the block's bytes X[0..n-1]."""
    a = 0
    b = 0
    n = len(block)
    for i, x in enumerate(block):
        a += x
        b += (n - i) * x
    return a % WEAK_MOD, b % WEAK_MOD


def combine_weak(a: int, b: int) -> int:
    """The weak checksum ``(a, b)`` as one value, ``a + 2^16 * b``, as a
    signature stores it."""
    return a + (b << 16)


def weak_roll(a: int, b: int, out_byte: int, in_byte: int, window: int) -> tuple[int, int]:
    """O(1) update of (a, b) when the window slides forward one byte."""
    a2 = (a - out_byte + in_byte) % WEAK_MOD
    b2 = (b - window * out_byte + a2) % WEAK_MOD
    return a2, b2


def block_length(sig: FileSignature, index: int) -> int:
    """Length of the basis block ``index``: the block size, or what is
    left of the basis for the last block."""
    if index == sig.block_count - 1:
        return sig.total_length - index * sig.block_size
    return sig.block_size
