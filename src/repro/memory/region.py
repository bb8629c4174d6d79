"""Memory regions: contiguous mapped byte ranges with protection bits.

A region models one mapping in the simulated address space.  Real
HEALERS uses ``mmap``/``mprotect`` to build guarded test buffers; here a
region carries its protection directly and the address space consults
it on every access.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.memory.faults import AccessKind, SegmentationFault


_READ = AccessKind.READ
_WRITE = AccessKind.WRITE


class Protection(enum.Flag):
    """Page protection bits, mirroring ``PROT_READ``/``PROT_WRITE``."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    RW = READ | WRITE

    def allows(self, access: AccessKind) -> bool:
        # Identity checks and per-member flags only: enum.Flag's ``&``
        # and enum hashing both run Python-level code, and this runs
        # on every checked access — the injection hot loop.
        if access is _READ:
            return self._readable
        if access is _WRITE:
            return self._writable
        return False

    def describe(self) -> str:
        r = "r" if self & Protection.READ else "-"
        w = "w" if self & Protection.WRITE else "-"
        return r + w


# Every Protection value is a named member (all four bit patterns are
# named), so per-member answers cover every instance.
for _member in Protection.__members__.values():
    _member._readable = bool(_member & Protection.READ)
    _member._writable = bool(_member & Protection.WRITE)
del _member


class RegionKind(enum.Enum):
    """What a region is used for.

    The wrapper's *stateful* checks distinguish heap blocks (tracked in
    the allocation table) from stack and static memory; the injector's
    test case generators create ``TEST`` regions whose addresses they
    later recognize during fault attribution.
    """

    HEAP = "heap"
    STACK = "stack"
    STATIC = "static"
    TEST = "test"
    GUARD = "guard"
    LIBC = "libc"


@dataclass
class Region:
    """A contiguous mapped range ``[base, base + size)``.

    Attributes:
        base: first valid address of the region.
        size: length in bytes; zero-size regions are legal (the
            adaptive array generator starts from a zero-size array).
        prot: current protection bits.
        kind: bookkeeping tag, see :class:`RegionKind`.
        label: free-form annotation used in diagnostics.
        freed: set when the region was released; any later access
            faults ("use after free").
        shared: the backing buffer is aliased with at least one
            copy-on-write twin (see :meth:`clone`); the first write
            through this region takes a private copy first.
    """

    base: int
    size: int
    prot: Protection = Protection.RW
    kind: RegionKind = RegionKind.TEST
    label: str = ""
    freed: bool = False
    data: bytearray = field(default_factory=bytearray)
    shared: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.data:
            self.data = bytearray(self.size)
        if len(self.data) != self.size:
            raise ValueError("region data length must equal region size")

    @property
    def end(self) -> int:
        """One past the last valid address."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def overlaps(self, base: int, size: int) -> bool:
        return base < self.end and self.base < base + size

    def check_access(self, address: int, count: int, access: AccessKind) -> None:
        """Validate an access of ``count`` bytes starting at ``address``.

        Raises :class:`SegmentationFault` at the *first* offending
        address, which is what makes adaptive array sizing possible:
        when a function runs off the end of a test buffer the fault
        address tells the generator exactly where the overrun began.
        """
        if self.freed:
            raise SegmentationFault(address, access, "use after free")
        if not self.prot.allows(access):
            raise SegmentationFault(
                address, access, f"protection is {self.prot.describe()}"
            )
        if address < self.base:
            raise SegmentationFault(address, access, "below region base")
        if address + count > self.end:
            raise SegmentationFault(max(address, self.end), access, "past region end")

    def read(self, address: int, count: int) -> bytes:
        self.check_access(address, count, AccessKind.READ)
        offset = address - self.base
        return bytes(self.data[offset : offset + count])

    def read_byte_at(self, address: int) -> int:
        """One-byte read without the ``bytes`` allocation of
        :meth:`read` — the dominant access shape of the libc models'
        per-byte loops.  Same checks, same fault addresses."""
        self.check_access(address, 1, AccessKind.READ)
        return self.data[address - self.base]

    def write_byte_at(self, address: int, value: int) -> None:
        """One-byte write twin of :meth:`read_byte_at`."""
        self.check_access(address, 1, AccessKind.WRITE)
        if self.shared:
            self._own_data()
        self.data[address - self.base] = value & 0xFF

    def write(self, address: int, payload: bytes) -> None:
        self.check_access(address, len(payload), AccessKind.WRITE)
        if self.shared:
            self._own_data()
        offset = address - self.base
        self.data[offset : offset + len(payload)] = payload

    def poke(self, address: int, payload: bytes) -> None:
        """Write bypassing protection (used to pre-fill read-only test
        buffers before handing them to the function under test)."""
        if address < self.base or address + len(payload) > self.end:
            raise ValueError("poke outside region bounds")
        if self.shared:
            self._own_data()
        offset = address - self.base
        self.data[offset : offset + len(payload)] = payload

    def peek(self, address: int, count: int) -> bytes:
        """Read bypassing protection (diagnostics only)."""
        if address < self.base or address + count > self.end:
            raise ValueError("peek outside region bounds")
        offset = address - self.base
        return bytes(self.data[offset : offset + count])

    def _own_data(self) -> None:
        """Take a private copy of an aliased backing buffer.

        Twins sharing the old buffer keep it; their ``shared`` flags
        stay set, which costs at most one redundant copy per twin —
        never a correctness problem, since a shared buffer is only
        ever read.
        """
        self.data = bytearray(self.data)
        self.shared = False

    def clone(self) -> "Region":
        """Copy-on-write twin: O(1) — the byte buffer is aliased, not
        copied, until either side writes (:meth:`_own_data`)."""
        if self.size:
            self.shared = True
        twin = Region(
            base=self.base,
            size=self.size,
            prot=self.prot,
            kind=self.kind,
            label=self.label,
            freed=self.freed,
            data=self.data,
        )
        twin.shared = self.shared
        return twin
