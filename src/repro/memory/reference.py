"""Reference (unoptimized) memory semantics.

The fast paths in :mod:`repro.memory.address_space` — copy-on-write
forks, the region-lookup cache, slice-based C-string scans, the
single-pass accessibility probe — are performance work only: they must
be observationally identical to the byte-at-a-time, deep-copying
implementations this reproduction started with.  This module keeps
those original semantics alive verbatim so the equivalence fuzz tests
(``tests/test_memory_cow.py``) and the hot-path bench
(``benchmarks/test_bench_memory_hotpath.py``) can diff the optimized
code against ground truth instead of asserting speed on faith.

Nothing here is used on any production path.
"""

from __future__ import annotations

from typing import Optional

from repro.memory.address_space import NULL, AddressSpace
from repro.memory.faults import AccessKind, SegmentationFault
from repro.memory.region import Region


def eager_fork(space: AddressSpace) -> AddressSpace:
    """The original O(total bytes) fork: every region's buffer is
    copied up front, whether or not anyone ever writes it."""
    clone = AddressSpace(space.page_size)
    clone._next_base = space._next_base
    clone._bases = list(space._bases)
    clone._regions = [_eager_clone(region) for region in space._regions]
    return clone


def _eager_clone(region: Region) -> Region:
    return Region(
        base=region.base,
        size=region.size,
        prot=region.prot,
        kind=region.kind,
        label=region.label,
        freed=region.freed,
        data=bytearray(region.data),
    )


def read_cstring_ref(
    space: AddressSpace, address: int, limit: int | None = None
) -> bytes:
    """Byte-by-byte NUL scan: one bounds-checked ``load`` per byte,
    faulting at the first inaccessible byte."""
    out = bytearray()
    cursor = address
    while limit is None or len(out) < limit:
        byte = space.load(cursor, 1)[0]
        if byte == 0:
            break
        out.append(byte)
        cursor += 1
    return bytes(out)


def scan_cstring_ref(
    space: AddressSpace, address: int, limit: int | None = None,
    stop: int | None = None,
) -> tuple[bytes, bool, Optional[SegmentationFault]]:
    """Per-byte scan reported in the ``scan_cstring`` result shape, so
    the fuzz test can compare payload, termination and fault fields
    directly against the fast path.  With ``stop``, the NUL or stop
    byte that ends the scan is peeked, not loaded: the fast path leaves
    it unread for the caller."""
    out = bytearray()
    cursor = address
    while limit is None or len(out) < limit:
        if stop is not None and space.is_readable(cursor, 1):
            if space.region_at(cursor).peek(cursor, 1)[0] in (0, stop):
                return bytes(out), True, None
        try:
            byte = space.load(cursor, 1)[0]
        except SegmentationFault as fault:
            return bytes(out), False, fault
        if byte == 0:
            return bytes(out), True, None
        out.append(byte)
        cursor += 1
    return bytes(out), False, None


def write_cstring_ref(space: AddressSpace, address: int, value: bytes) -> None:
    """Byte-by-byte write of ``value`` plus the terminating NUL; bytes
    before the faulting one stay written."""
    cursor = address
    for byte in value:
        space.store(cursor, bytes([byte]))
        cursor += 1
    space.store(cursor, b"\x00")


def copy_in_cstring_ref(
    space: AddressSpace, address: int, payload: bytes
) -> tuple[int, Optional[SegmentationFault]]:
    """Per-byte writer in the ``copy_in_cstring`` result shape."""
    written = 0
    for byte in payload:
        try:
            space.store(address + written, bytes([byte]))
        except SegmentationFault as fault:
            return written, fault
        written += 1
    return written, None


def is_accessible_ref(
    space: AddressSpace, address: int, count: int, access: AccessKind
) -> bool:
    """The original double-pass probe: locate the region, then run the
    full ``check_access`` validation and convert faults to False."""
    if count == 0:
        return True
    if address == NULL:
        return False
    region = space.region_at(address)
    if region is None:
        return False
    try:
        region.check_access(address, count, access)
    except SegmentationFault:
        return False
    return True
