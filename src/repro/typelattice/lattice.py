"""The instantiated type lattice and its partial order.

A :class:`Lattice` holds a *finite* set of type instances (templates
instantiated at the size parameters that actually occurred during fault
injection) and provides the subtype relation as the reflexive-transitive
closure of the direct rules — the concrete form of the paper's
``(T, <=)``.

Each instance is interned to a dense int, and the closure is stored as
int bitmasks: ``up[i]`` is the up-set of instance ``i`` (itself and all
its supertypes), ``down[i]`` its down-set.  One topological sweep over
the direct edges builds them, so every order query is a bit test and
robust-type selection (:mod:`repro.typelattice.robust`) is mask
algebra.  No third-party package is involved.
"""

from __future__ import annotations

from graphlib import TopologicalSorter
from typing import Iterable, Iterator

from repro.typelattice import registry
from repro.typelattice.instances import TypeInstance
from repro.typelattice.rules import DIRECT_RULES, is_direct_subtype

#: Templates that take a size parameter.
PARAMETERIZED_TEMPLATES = {
    "RONLY_FIXED": True,
    "RW_FIXED": True,
    "WONLY_FIXED": True,
    "R_ARRAY": False,
    "W_ARRAY": False,
    "RW_ARRAY": False,
    "R_ARRAY_NULL": False,
    "W_ARRAY_NULL": False,
    "RW_ARRAY_NULL": False,
}

#: Every non-parameterized instance in the registry.
_FIXED_INSTANCES: tuple[TypeInstance, ...] = (
    registry.NULL,
    registry.INVALID,
    registry.UNCONSTRAINED,
    registry.RONLY_FILE,
    registry.RW_FILE,
    registry.WONLY_FILE,
    registry.CORRUPT_FILE,
    registry.STALE_FILE,
    registry.R_FILE,
    registry.W_FILE,
    registry.OPEN_FILE,
    registry.OPEN_FILE_NULL,
    registry.OPEN_DIR,
    registry.CORRUPT_DIR,
    registry.STALE_DIR,
    registry.OPEN_DIR_NULL,
    registry.STRING_RO,
    registry.STRING_RW,
    registry.VALID_MODE,
    registry.VALID_FORMAT,
    registry.CSTRING,
    registry.CSTRING_NULL,
    registry.WRITABLE_STRING,
    registry.WRITABLE_STRING_NULL,
    registry.MODE_STRING,
    registry.FORMAT_STRING,
    registry.FD_RONLY,
    registry.FD_RW,
    registry.FD_WONLY,
    registry.FD_CLOSED,
    registry.FD_NEGATIVE,
    registry.FD_HUGE,
    registry.READABLE_FD,
    registry.WRITABLE_FD,
    registry.OPEN_FD,
    registry.ANY_FD,
    registry.INT_BIG_NEG,
    registry.INT_SMALL_NEG,
    registry.INT_ZERO,
    registry.INT_SMALL_POS,
    registry.INT_BIG_POS,
    registry.CHAR_RANGE,
    registry.INT_NONNEG,
    registry.INT_NONPOS,
    registry.ANY_INT,
    registry.SIZE_ZERO,
    registry.SIZE_SMALL,
    registry.SIZE_HUGE,
    registry.REASONABLE_SIZE,
    registry.ANY_SIZE,
    registry.REAL_NEG,
    registry.REAL_ZERO,
    registry.REAL_POS,
    registry.REAL_NAN,
    registry.REAL_INF,
    registry.FINITE_REAL,
    registry.ANY_REAL,
    registry.VALID_FUNCPTR,
    registry.FUNCPTR,
    registry.FUNCPTR_NULL,
)


def build_instances(size_pool: Iterable[int]) -> list[TypeInstance]:
    """All registry instances, with parameterized templates
    instantiated at every size in ``size_pool``.

    The pool normally contains the buffer sizes observed during fault
    injection for one argument; the lattice over these instances is
    what the robust-type computation searches.
    """
    sizes = sorted(set(size_pool))
    instances: list[TypeInstance] = list(_FIXED_INSTANCES)
    instances.extend(registry.EXTENSION_INSTANCES)
    for name, fundamental in PARAMETERIZED_TEMPLATES.items():
        for size in sizes:
            instances.append(
                TypeInstance(name, size, fundamental=fundamental, family="ptr")
            )
    return instances


#: Memo for :meth:`Lattice.for_sizes`; bounded so pathological size
#: diversity cannot grow memory without limit.
_LATTICE_CACHE: dict[tuple, "Lattice"] = {}
_LATTICE_CACHE_LIMIT = 64


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Lattice:
    """Finite instantiation of ``(T, <=)`` with its closure as bitmasks.

    Attributes:
        instances: the distinct instances; ``instances[i]`` has index ``i``.
        index: instance -> its index.
        up: bit ``j`` of ``up[i]`` is set iff ``instances[i] <= instances[j]``.
        down: the transpose: bit ``j`` of ``down[i]`` is set iff
            ``instances[j] <= instances[i]``.
    """

    def __init__(self, instances: Iterable[TypeInstance]) -> None:
        self.instances: list[TypeInstance] = list(dict.fromkeys(instances))
        self.index: dict[TypeInstance, int] = {
            t: i for i, t in enumerate(self.instances)
        }
        by_name: dict[str, list[int]] = {}
        for i, t in enumerate(self.instances):
            by_name.setdefault(t.name, []).append(i)
        # Direct edges, enumerated per rule over the two template
        # groups it links instead of over all instance pairs.
        supers: dict[int, list[int]] = {i: [] for i in range(len(self.instances))}
        for sub_name, sup_name in DIRECT_RULES:
            for i in by_name.get(sub_name, ()):
                for j in by_name.get(sup_name, ()):
                    if is_direct_subtype(self.instances[i], self.instances[j]):
                        supers[i].append(j)
        # Every supertype comes before its subtypes; rules that form a
        # cycle raise graphlib.CycleError (a ValueError).
        order = TopologicalSorter(supers).static_order()
        self.up: list[int] = [0] * len(self.instances)
        for i in order:
            mask = 1 << i
            for j in supers[i]:
                mask |= self.up[j]
            self.up[i] = mask
        self.down: list[int] = [0] * len(self.instances)
        for i, mask in enumerate(self.up):
            for j in bits(mask):
                self.down[j] |= 1 << i

    @classmethod
    def for_sizes(cls, size_pool: Iterable[int]) -> "Lattice":
        """Memoized constructor.

        A lattice is a pure function of the observed sizes, the
        registered extension instances, and the direct-rule table;
        consecutive injector runs overwhelmingly share size pools, so
        one campaign rebuilds what would otherwise be dozens of
        identical closures.  The key captures every input that can
        change (extensibility tests register/unregister instances and
        rules at runtime), and the cache is bounded.
        """
        sizes = tuple(sorted(set(size_pool)))
        key = (
            sizes,
            tuple(registry.EXTENSION_INSTANCES),
            tuple(sorted((edge, id(rule)) for edge, rule in DIRECT_RULES.items())),
        )
        cached = _LATTICE_CACHE.get(key)
        if cached is None:
            if len(_LATTICE_CACHE) >= _LATTICE_CACHE_LIMIT:
                _LATTICE_CACHE.clear()
            cached = cls(build_instances(sizes))
            _LATTICE_CACHE[key] = cached
        return cached

    # -- masks -------------------------------------------------------------
    @property
    def full(self) -> int:
        """The mask of every instance."""
        return (1 << len(self.instances)) - 1

    def mask(self, instances: Iterable[TypeInstance]) -> int:
        """The mask of ``instances``; those outside the lattice are
        dropped."""
        mask = 0
        for instance in instances:
            i = self.index.get(instance)
            if i is not None:
                mask |= 1 << i
        return mask

    def members(self, mask: int) -> list[TypeInstance]:
        """The instances in ``mask``, in index order."""
        return [self.instances[i] for i in bits(mask)]

    def _strict_up(self, instance: TypeInstance) -> int:
        i = self.index.get(instance)
        return 0 if i is None else self.up[i] & ~(1 << i)

    def _strict_down(self, instance: TypeInstance) -> int:
        i = self.index.get(instance)
        return 0 if i is None else self.down[i] & ~(1 << i)

    # -- order queries ---------------------------------------------------
    def is_subtype(self, sub: TypeInstance, sup: TypeInstance) -> bool:
        """Non-strict: ``sub <= sup``."""
        return sub == sup or self.is_strict_subtype(sub, sup)

    def is_strict_subtype(self, sub: TypeInstance, sup: TypeInstance) -> bool:
        j = self.index.get(sup)
        return j is not None and bool(self._strict_up(sub) >> j & 1)

    def supertypes(self, instance: TypeInstance) -> frozenset[TypeInstance]:
        """All strict supertypes of ``instance`` within the lattice."""
        return frozenset(self.members(self._strict_up(instance)))

    def subtypes(self, instance: TypeInstance) -> frozenset[TypeInstance]:
        """All strict subtypes of ``instance`` within the lattice."""
        return frozenset(self.members(self._strict_down(instance)))

    def contains(self, instance: TypeInstance) -> bool:
        return instance in self.index

    def fundamentals(self) -> list[TypeInstance]:
        return [t for t in self.instances if t.fundamental]

    def unified(self) -> list[TypeInstance]:
        return [t for t in self.instances if not t.fundamental]

    def members_of(
        self, unified: TypeInstance, fundamentals: Iterable[TypeInstance]
    ) -> set[TypeInstance]:
        """The given fundamentals whose value sets lie inside
        ``unified`` (i.e. that are subtypes of it)."""
        return {f for f in fundamentals if self.is_subtype(f, unified)}

    def weakest(self, candidates: Iterable[TypeInstance]) -> list[TypeInstance]:
        """Maximal elements (weakest = largest value sets) among
        ``candidates``."""
        pool = list(candidates)
        pool_mask = self.mask(pool)
        return [t for t in pool if not self._strict_up(t) & pool_mask]

    def strongest(self, candidates: Iterable[TypeInstance]) -> list[TypeInstance]:
        """Minimal elements among ``candidates``."""
        pool = list(candidates)
        pool_mask = self.mask(pool)
        return [t for t in pool if not self._strict_down(t) & pool_mask]
