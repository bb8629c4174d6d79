"""The simulated address space.

This is the substrate that stands in for hardware memory protection in
the paper.  All C library models (:mod:`repro.libc`) perform every load
and store through an :class:`AddressSpace`, so an out-of-bounds access,
a write through a read-only pointer, a NULL dereference or a
use-after-free raises a :class:`~repro.memory.faults.SegmentationFault`
carrying the exact fault address — precisely the information the
adaptive fault injector needs for fault attribution (paper section
4.1).

Layout conventions:

* address 0 (and the whole first page) is never mapped, so NULL
  dereferences fault;
* regions are allocated upwards from ``FIRST_ADDRESS`` with at least
  one unmapped *guard page* between any two regions, so running off
  the end of a buffer faults even for 1-byte overruns into the gap;
* addresses are 64-bit and little-endian, matching the Linux/x86
  systems the paper evaluated on.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional

from repro.memory.faults import AccessKind, OutOfMemory, SegmentationFault
from repro.memory.region import Protection, Region, RegionKind

PAGE_SIZE = 4096
FIRST_ADDRESS = 0x1000_0000
ADDRESS_LIMIT = 0x7FFF_FFFF_0000
#: Largest single mapping the simulation will back with real memory;
#: larger requests raise the simulated OutOfMemory (the paper's
#: "or, we run out of memory" arm) instead of exhausting the host.
MAX_REGION_SIZE = 1 << 26  # 64 MiB
NULL = 0

#: A conventional "invalid non-null pointer" used by test case
#: generators for the INVALID fundamental type; it is never mapped.
INVALID_POINTER = 0xDEAD_0000


def page_of(address: int) -> int:
    """Return the page number containing ``address``."""
    return address // PAGE_SIZE


def round_up_to_page(size: int) -> int:
    return ((size + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE


class AddressSpace:
    """A sparse, guarded, byte-addressable simulated address space.

    The implementation keeps regions in a list sorted by base address
    and locates the region for an access with binary search, so lookups
    are ``O(log n)`` in the number of live regions.  A one-entry
    lookup cache short-circuits the search for the common case of
    repeated accesses into the same region (string scans, memcpy
    loops); it is invalidated by anything that changes the mapping
    table (``map``/``unmap``/``protect``).
    """

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        self.page_size = page_size
        self._bases: list[int] = []
        self._regions: list[Region] = []
        self._next_base = FIRST_ADDRESS
        self._lookup_cache: Optional[Region] = None
        #: Mapping generation: monotonically bumped by anything that can
        #: change an accessibility decision — map/unmap/protect here and
        #: Heap.free — so validity caches (the wrapper's revalidation
        #: cache) can be invalidated without subscribing to mutations.
        self.generation = 0
        #: count of access *calls*, exposed for the performance benches
        self.access_count = 0
        #: bytes moved, so benches compare real work, not call counts
        #: (a bulk load of 4 KiB is one call but 4096 bytes).  Counted
        #: after the transfer: a faulting access moves nothing.
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    # mapping management
    # ------------------------------------------------------------------
    def map_region(
        self,
        size: int,
        prot: Protection = Protection.RW,
        kind: RegionKind = RegionKind.TEST,
        label: str = "",
    ) -> Region:
        """Map a fresh region of exactly ``size`` bytes.

        The region is placed so that the byte immediately after its end
        is unmapped: the surrounding guard gap is what lets the fault
        injector "use hardware memory protection to make sure that an
        access to an element after the last allocated element generates
        a memory segmentation fault".
        """
        if size < 0:
            raise ValueError("region size must be non-negative")
        if size > MAX_REGION_SIZE:
            raise OutOfMemory(size)
        base = self._next_base
        # Reserve the region plus a trailing guard page, rounded so
        # every region starts on its own page.
        reserved = round_up_to_page(max(size, 1)) + self.page_size
        if base + reserved > ADDRESS_LIMIT:
            raise OutOfMemory(size)
        self._next_base = base + reserved
        region = Region(base=base, size=size, prot=prot, kind=kind, label=label)
        index = bisect.bisect_left(self._bases, base)
        self._bases.insert(index, base)
        self._regions.insert(index, region)
        self._lookup_cache = None
        self.generation += 1
        return region

    def map_at_end_of_page(
        self,
        size: int,
        prot: Protection = Protection.RW,
        kind: RegionKind = RegionKind.TEST,
        label: str = "",
    ) -> Region:
        """Map a region whose *end* coincides with a page boundary.

        Mirrors the classic fault-injection trick of placing a buffer
        flush against the end of a page so the very first byte past the
        buffer faults.  With our per-region bounds checking any region
        has this property, but the distinct base alignment is kept for
        fidelity and for the page-probing ablation.
        """
        region = self.map_region(round_up_to_page(max(size, 1)), prot, kind, label)
        # Shrink the region from the front so that it ends exactly on
        # the original page boundary.
        excess = region.size - size
        region.base += excess
        region.size = size
        region.data = region.data[excess:] if size else bytearray()
        index = self._regions.index(region)
        self._bases[index] = region.base
        self._lookup_cache = None
        self.generation += 1
        return region

    def unmap(self, region: Region) -> None:
        """Remove a region entirely; subsequent accesses fault."""
        index = bisect.bisect_left(self._bases, region.base)
        if index >= len(self._regions) or self._regions[index] is not region:
            raise ValueError("region is not mapped in this address space")
        del self._bases[index]
        del self._regions[index]
        self._lookup_cache = None
        self.generation += 1

    def protect(self, region: Region, prot: Protection) -> None:
        """Change a live region's protection (simulated ``mprotect``)."""
        region.prot = prot
        self._lookup_cache = None
        self.generation += 1

    def region_at(self, address: int) -> Optional[Region]:
        """Return the region containing ``address`` or None."""
        cached = self._lookup_cache
        if cached is not None and cached.base <= address < cached.base + cached.size:
            return cached
        index = bisect.bisect_right(self._bases, address) - 1
        if index < 0:
            return None
        region = self._regions[index]
        if region.contains(address):
            self._lookup_cache = region
            return region
        return None

    def regions(self) -> Iterator[Region]:
        return iter(self._regions)

    @property
    def region_count(self) -> int:
        return len(self._regions)

    # ------------------------------------------------------------------
    # raw access
    # ------------------------------------------------------------------
    def _locate(self, address: int, count: int, access: AccessKind) -> Region:
        if address == NULL:
            raise SegmentationFault(address, access, "NULL dereference")
        region = self.region_at(address)
        if region is None:
            raise SegmentationFault(address, access, "unmapped address")
        return region

    def load(self, address: int, count: int) -> bytes:
        """Read ``count`` bytes, faulting on the first invalid byte."""
        self.access_count += 1
        if count == 0:
            return b""
        region = self._locate(address, count, AccessKind.READ)
        payload = region.read(address, count)
        self.bytes_read += count
        return payload

    def store(self, address: int, payload: bytes) -> None:
        """Write ``payload``, faulting on the first invalid byte."""
        self.access_count += 1
        if not payload:
            return
        region = self._locate(address, len(payload), AccessKind.WRITE)
        region.write(address, payload)
        self.bytes_written += len(payload)

    def load_byte(self, address: int) -> int:
        """One-byte load returning an ``int`` — no ``bytes`` object is
        allocated.  Identical semantics to ``load(address, 1)[0]``;
        this is the shape every per-byte libc model loop uses."""
        self.access_count += 1
        if address == NULL:
            raise SegmentationFault(address, AccessKind.READ, "NULL dereference")
        region = self.region_at(address)
        if region is None:
            raise SegmentationFault(address, AccessKind.READ, "unmapped address")
        value = region.read_byte_at(address)
        self.bytes_read += 1
        return value

    def store_byte(self, address: int, value: int) -> None:
        """One-byte store twin of :meth:`load_byte`."""
        self.access_count += 1
        if address == NULL:
            raise SegmentationFault(address, AccessKind.WRITE, "NULL dereference")
        region = self.region_at(address)
        if region is None:
            raise SegmentationFault(address, AccessKind.WRITE, "unmapped address")
        region.write_byte_at(address, value)
        self.bytes_written += 1

    def is_accessible(self, address: int, count: int, access: AccessKind) -> bool:
        """Non-faulting accessibility probe of a whole range.

        Single pass: one region lookup, one set of inline checks —
        equivalent to (but roughly half the cost of) locating the
        region and then re-bounds-checking it via ``check_access``.
        """
        if count == 0:
            return True
        if address == NULL:
            return False
        region = self.region_at(address)
        if region is None:
            return False
        return (
            not region.freed
            and region.prot.allows(access)
            and address + count <= region.end
        )

    def is_readable(self, address: int, count: int) -> bool:
        return self.is_accessible(address, count, AccessKind.READ)

    def is_writable(self, address: int, count: int) -> bool:
        return self.is_accessible(address, count, AccessKind.WRITE)

    # ------------------------------------------------------------------
    # typed accessors (little-endian, LP64)
    # ------------------------------------------------------------------
    def load_uint(self, address: int, size: int) -> int:
        return int.from_bytes(self.load(address, size), "little")

    def store_uint(self, address: int, size: int, value: int) -> None:
        self.store(address, (value % (1 << (8 * size))).to_bytes(size, "little"))

    def load_int(self, address: int, size: int) -> int:
        return int.from_bytes(self.load(address, size), "little", signed=True)

    def store_int(self, address: int, size: int, value: int) -> None:
        lo, hi = -(1 << (8 * size - 1)), 1 << (8 * size - 1)
        wrapped = ((value - lo) % (hi - lo)) + lo
        self.store(address, wrapped.to_bytes(size, "little", signed=True))

    def load_u8(self, address: int) -> int:
        return self.load_uint(address, 1)

    def store_u8(self, address: int, value: int) -> None:
        self.store_uint(address, 1, value)

    def load_u32(self, address: int) -> int:
        return self.load_uint(address, 4)

    def store_u32(self, address: int, value: int) -> None:
        self.store_uint(address, 4, value)

    def load_i32(self, address: int) -> int:
        return self.load_int(address, 4)

    def store_i32(self, address: int, value: int) -> None:
        self.store_int(address, 4, value)

    def load_u64(self, address: int) -> int:
        return self.load_uint(address, 8)

    def store_u64(self, address: int, value: int) -> None:
        self.store_uint(address, 8, value)

    def load_i64(self, address: int) -> int:
        return self.load_int(address, 8)

    def store_i64(self, address: int, value: int) -> None:
        self.store_int(address, 8, value)

    def load_pointer(self, address: int) -> int:
        return self.load_u64(address)

    def store_pointer(self, address: int, value: int) -> None:
        self.store_u64(address, value)

    # ------------------------------------------------------------------
    # C string helpers (bulk fast paths)
    # ------------------------------------------------------------------
    def scan_cstring(
        self, address: int, limit: int | None = None, stop: int | None = None
    ) -> tuple[bytes, bool, Optional[SegmentationFault]]:
        """Core NUL scan: ``(payload, terminated, fault)``.

        Scans with ``bytes.find(0)`` over whole region slices instead
        of one bounds-checked load per byte, while reproducing the
        per-byte reference semantics bit for bit:

        * ``payload`` is the bytes before the terminator / limit / fault;
        * ``terminated`` is True when a NUL was actually read;
        * ``fault`` (not raised here) is exactly the
          :class:`SegmentationFault` a byte-by-byte ``strlen`` would
          raise after successfully reading ``len(payload)`` bytes —
          same address, same reason.

        With a ``stop`` byte the scan is ``strchrnul``-shaped: it halts
        *before* the first NUL or ``stop`` byte and consumes neither,
        so ``terminated`` means one of them is next and ``bytes_read``
        counts only the payload.  The format engines use this to take a
        whole literal run at once and then read the ``%``/NUL byte
        themselves.  Each call reads the live region, so a store made
        between two scans (a ``%n``) is seen by the next one.

        Callers layer their own accounting on top: the address-space
        wrappers raise the fault directly; the libc helpers in
        :mod:`repro.libc.common` first charge watchdog steps so hang
        detection also matches the per-byte reference.
        """
        out = bytearray()
        cursor = address
        remaining = limit
        while remaining is None or remaining > 0:
            if cursor == NULL:
                return bytes(out), False, SegmentationFault(
                    cursor, AccessKind.READ, "NULL dereference"
                )
            region = self.region_at(cursor)
            if region is None:
                return bytes(out), False, SegmentationFault(
                    cursor, AccessKind.READ, "unmapped address"
                )
            try:
                region.check_access(cursor, 1, AccessKind.READ)
            except SegmentationFault as fault:
                return bytes(out), False, fault
            offset = cursor - region.base
            window_end = region.size
            if remaining is not None:
                window_end = min(window_end, offset + remaining)
            data = region.data
            end = window_end
            if stop is not None:
                # Stop byte first: the NUL search is then bounded by it,
                # so k conversions cost O(n), not O(k * n).
                hit = data.find(stop, offset, end)
                if hit >= 0:
                    end = hit
            nul = data.find(0, offset, end)
            if nul >= 0:
                end = nul
            self.access_count += 1
            out += data[offset:end]
            if end < window_end:
                # Stopped at a NUL or stop byte; only a NUL scan reads it.
                self.bytes_read += end - offset + (1 if stop is None else 0)
                return bytes(out), True, None
            consumed = window_end - offset
            self.bytes_read += consumed
            cursor += consumed
            if remaining is not None:
                remaining -= consumed
        return bytes(out), False, None

    def scan_window(
        self, address: int, count: int, access: AccessKind = AccessKind.READ
    ) -> tuple[bytes, Optional[SegmentationFault]]:
        """Bulk read of up to ``count`` bytes: ``(payload, fault)``.

        The fixed-length twin of :meth:`scan_cstring` for the
        ``mem*`` model loops: ``payload`` is the accessible prefix of
        ``[address, address + count)`` and ``fault`` (not raised) is
        exactly the :class:`SegmentationFault` a per-byte loop would
        raise after reading ``len(payload)`` bytes.
        """
        out = bytearray()
        cursor = address
        remaining = count
        while remaining > 0:
            if cursor == NULL:
                return bytes(out), SegmentationFault(
                    cursor, access, "NULL dereference"
                )
            region = self.region_at(cursor)
            if region is None:
                return bytes(out), SegmentationFault(
                    cursor, access, "unmapped address"
                )
            try:
                region.check_access(cursor, 1, access)
            except SegmentationFault as fault:
                return bytes(out), fault
            take = min(region.end - cursor, remaining)
            offset = cursor - region.base
            out += region.data[offset : offset + take]
            self.access_count += 1
            self.bytes_read += take
            cursor += take
            remaining -= take
        return bytes(out), None

    def read_cstring(self, address: int, limit: int | None = None) -> bytes:
        """Read a NUL-terminated string starting at ``address``.

        Behaves exactly like a byte-by-byte ``strlen`` scan: a string
        that is not terminated before the end of its region faults at
        the first byte past the region — the behaviour the injector
        exploits to discover required buffer sizes — but runs as one
        slice scan per region.
        """
        payload, _, fault = self.scan_cstring(address, limit)
        if fault is not None:
            raise fault
        return payload

    def copy_in_cstring(
        self, address: int, payload: bytes
    ) -> tuple[int, Optional[SegmentationFault]]:
        """Core bulk write of ``payload``: ``(written, fault)``.

        Writes the longest writable prefix in region-sized slices and
        reports how many bytes landed, plus the exact fault a per-byte
        writer would raise next (or None).  The partially written
        prefix stays visible, matching the reference semantics where
        every byte before the faulting one was already stored.
        """
        total = len(payload)
        written = 0
        cursor = address
        while written < total:
            if cursor == NULL:
                return written, SegmentationFault(
                    cursor, AccessKind.WRITE, "NULL dereference"
                )
            region = self.region_at(cursor)
            if region is None:
                return written, SegmentationFault(
                    cursor, AccessKind.WRITE, "unmapped address"
                )
            try:
                region.check_access(cursor, 1, AccessKind.WRITE)
            except SegmentationFault as fault:
                return written, fault
            take = min(region.end - cursor, total - written)
            if region.shared:
                region._own_data()
            offset = cursor - region.base
            region.data[offset : offset + take] = payload[written : written + take]
            self.access_count += 1
            self.bytes_written += take
            written += take
            cursor += take
        return written, None

    def write_cstring(self, address: int, value: bytes) -> None:
        """Write ``value`` plus a terminating NUL (bulk fast path with
        byte-exact fault semantics)."""
        written, fault = self.copy_in_cstring(address, bytes(value) + b"\x00")
        if fault is not None:
            raise fault

    def cstring_length(self, address: int) -> int:
        """``strlen`` against simulated memory (may fault)."""
        payload, _, fault = self.scan_cstring(address)
        if fault is not None:
            raise fault
        return len(payload)

    # ------------------------------------------------------------------
    # convenience allocation helpers for tests / generators
    # ------------------------------------------------------------------
    def alloc_bytes(
        self,
        payload: bytes,
        prot: Protection = Protection.RW,
        kind: RegionKind = RegionKind.TEST,
        label: str = "",
    ) -> Region:
        """Map a region exactly the size of ``payload`` holding it."""
        region = self.map_region(len(payload), prot, kind, label)
        region.poke(region.base, payload)
        return region

    def alloc_cstring(
        self,
        value: bytes | str,
        prot: Protection = Protection.RW,
        kind: RegionKind = RegionKind.TEST,
        label: str = "",
    ) -> Region:
        """Map a region holding a NUL-terminated string."""
        raw = value.encode() if isinstance(value, str) else value
        return self.alloc_bytes(raw + b"\x00", prot, kind, label)

    def fork(self) -> "AddressSpace":
        """Copy-on-write fork, modelling the paper's child-process
        isolation.

        Semantically a deep copy — writes on either side are never
        visible to the other — but the cost is O(region count), not
        O(total mapped bytes): each region is cloned as a COW twin
        that shares its byte buffer until first write (see
        :meth:`Region.clone`).
        """
        clone = AddressSpace(self.page_size)
        clone._next_base = self._next_base
        clone._bases = list(self._bases)
        clone._regions = [region.clone() for region in self._regions]
        return clone
