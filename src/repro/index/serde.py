"""Byte-level page layout for R-tree nodes.

A node in memory is already laid out the way its page is: ``ids``, ``lo``
and ``hi`` arrays, one row per entry (:mod:`repro.index.node`). The fan-out
arithmetic in :func:`repro.index.node.node_capacities` is justified by the
on-disk layout below, and this module implements it so the capacity math
is verified, not asserted:

``page := header | entry*``

* header (32 bytes): magic ``b"GIRP"``, format version, level, entry
  count, node id — little-endian, padded;
* leaf entry: record id (int64) + ``d`` float64 attribute values;
* internal entry: child page id (int64) + box as ``2 d`` float64
  (``lo`` then ``hi``).

Encoding and decoding are one structured-array copy each way.
``encode_node`` refuses to overflow a page, which pins the capacities used
by the I/O model to what genuinely fits in 4 KiB.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.index.node import Node, PAGE_HEADER_BYTES

__all__ = ["encode_node", "decode_node", "PageOverflowError", "MAGIC"]

MAGIC = b"GIRP"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHiq12x")  # magic, version, level, count, node_id
assert _HEADER.size == PAGE_HEADER_BYTES


class PageOverflowError(ValueError):
    """Raised when a node's entries do not fit in one page."""


def _entry_dtype(d: int, leaf: bool) -> np.dtype:
    """One page entry: the id, then the ``lo`` row (and the ``hi`` row on
    an internal node), packed little-endian with no padding — the struct
    format ``<q`` + ``d`` (or ``2 d``) ``d``."""
    fields = [("id", "<i8"), ("lo", "<f8", (d,))]
    if not leaf:
        fields.append(("hi", "<f8", (d,)))
    dtype = np.dtype(fields)
    floats = d if leaf else 2 * d
    assert dtype.itemsize == struct.calcsize(f"<q{floats}d")
    return dtype


def encode_node(node: Node, page_size: int, d: int) -> bytes:
    """Serialise ``node`` into exactly ``page_size`` bytes."""
    dtype = _entry_dtype(d, node.is_leaf)
    count = len(node)
    needed = PAGE_HEADER_BYTES + dtype.itemsize * count
    if needed > page_size:
        raise PageOverflowError(
            f"node {node.node_id} needs {needed} bytes > page size {page_size}"
        )
    entries = np.empty(count, dtype=dtype)
    entries["id"] = node.ids
    entries["lo"] = node.lo
    if not node.is_leaf:
        entries["hi"] = node.hi
    out = bytearray(page_size)
    _HEADER.pack_into(out, 0, MAGIC, FORMAT_VERSION, node.level, count, node.node_id)
    out[PAGE_HEADER_BYTES:needed] = entries.tobytes()
    return bytes(out)


def decode_node(page: bytes, d: int) -> Node:
    """Reconstruct a node from its page bytes."""
    magic, version, level, count, node_id = _HEADER.unpack_from(page, 0)
    if magic != MAGIC:
        raise ValueError("not a GIR page (bad magic)")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported page format version {version}")
    leaf = level == 0
    entries = np.frombuffer(
        page, dtype=_entry_dtype(d, leaf), count=count, offset=PAGE_HEADER_BYTES
    )
    lo = entries["lo"].astype(np.float64)
    hi = None if leaf else entries["hi"].astype(np.float64)
    return Node(node_id, level, lo, hi, entries["id"].astype(np.int64))
