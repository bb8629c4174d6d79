"""Direct subtype rules between type templates.

Encodes the edges of the paper's Figure 3 and Figure 4 hierarchies (and
our additional families) as parameter-aware rules.  ``is_direct_subtype``
tests a single edge; the full partial order is the reflexive-transitive
closure that :class:`repro.typelattice.lattice.Lattice` stores as int
bitmasks.

Size parameter convention (paper Figure 3): ``R_ARRAY[t]`` requires *at
least* ``t`` readable bytes, so a larger requirement is a *stronger*
type: ``R_ARRAY[t'] <= R_ARRAY[t]  iff  t <= t'``, and
``RONLY_FIXED[v] <= R_ARRAY[t]  iff  t <= v``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.typelattice.instances import TypeInstance
from repro.typelattice.registry import DIR_SIZE, FILE_SIZE

ParamRule = Callable[[Optional[int], Optional[int]], bool]


def _sup_at_most_sub(sub: Optional[int], sup: Optional[int]) -> bool:
    """``sup <= sub``: the supertype demands no more bytes."""
    return sub is not None and sup is not None and sup <= sub


def _any(sub: Optional[int], sup: Optional[int]) -> bool:
    return True


def _sup_within(limit: int) -> ParamRule:
    def rule(sub: Optional[int], sup: Optional[int]) -> bool:
        return sup is not None and sup <= limit

    return rule


#: (sub template name, sup template name) -> parameter rule.
DIRECT_RULES: dict[tuple[str, str], ParamRule] = {}


def _rule(sub: str, sup: str, rule: ParamRule = _any) -> None:
    DIRECT_RULES[(sub, sup)] = rule


# --- fixed-size array family (Figure 3) -------------------------------
for _unified in ("R_ARRAY", "W_ARRAY", "RW_ARRAY", "R_ARRAY_NULL", "W_ARRAY_NULL", "RW_ARRAY_NULL"):
    # Weakening within one template: demanding fewer bytes is weaker.
    _rule(_unified, _unified, _sup_at_most_sub)

_rule("RONLY_FIXED", "R_ARRAY", _sup_at_most_sub)
_rule("RW_FIXED", "RW_ARRAY", _sup_at_most_sub)
_rule("WONLY_FIXED", "W_ARRAY", _sup_at_most_sub)
_rule("RW_ARRAY", "R_ARRAY", _sup_at_most_sub)
_rule("RW_ARRAY", "W_ARRAY", _sup_at_most_sub)
_rule("R_ARRAY", "R_ARRAY_NULL", _sup_at_most_sub)
_rule("W_ARRAY", "W_ARRAY_NULL", _sup_at_most_sub)
_rule("RW_ARRAY", "RW_ARRAY_NULL", _sup_at_most_sub)
_rule("RW_ARRAY_NULL", "R_ARRAY_NULL", _sup_at_most_sub)
_rule("RW_ARRAY_NULL", "W_ARRAY_NULL", _sup_at_most_sub)
_rule("NULL", "R_ARRAY_NULL")
_rule("NULL", "W_ARRAY_NULL")
_rule("NULL", "RW_ARRAY_NULL")
_rule("R_ARRAY_NULL", "UNCONSTRAINED")
_rule("W_ARRAY_NULL", "UNCONSTRAINED")
_rule("INVALID", "UNCONSTRAINED")

# --- file pointer family (Figure 4) ------------------------------------
_rule("RONLY_FILE", "R_FILE")
_rule("RW_FILE", "R_FILE")
_rule("RW_FILE", "W_FILE")
_rule("WONLY_FILE", "W_FILE")
_rule("R_FILE", "OPEN_FILE")
_rule("W_FILE", "OPEN_FILE")
_rule("OPEN_FILE", "OPEN_FILE_NULL")
_rule("NULL", "OPEN_FILE_NULL")
# A FILE is an RW region of sizeof(FILE) bytes (Figure 4's cross edge).
_rule("OPEN_FILE", "RW_ARRAY", _sup_within(FILE_SIZE))
_rule("OPEN_FILE_NULL", "RW_ARRAY_NULL", _sup_within(FILE_SIZE))
# A corrupted FILE block is still accessible FILE-sized memory, but not
# an open FILE — this is what keeps memory checks insufficient for
# stdio corruption failures (paper section 6).
_rule("CORRUPT_FILE", "RW_ARRAY", _sup_within(FILE_SIZE))
_rule("STALE_FILE", "RW_ARRAY", _sup_within(FILE_SIZE))

# --- directory stream family -------------------------------------------
_rule("OPEN_DIR", "OPEN_DIR_NULL")
_rule("NULL", "OPEN_DIR_NULL")
_rule("OPEN_DIR", "RW_ARRAY", _sup_within(DIR_SIZE))
_rule("OPEN_DIR_NULL", "RW_ARRAY_NULL", _sup_within(DIR_SIZE))
_rule("CORRUPT_DIR", "RW_ARRAY", _sup_within(DIR_SIZE))
_rule("STALE_DIR", "RW_ARRAY", _sup_within(DIR_SIZE))

# --- C string family -----------------------------------------------------
_rule("STRING_RO", "CSTRING")
_rule("STRING_RW", "WRITABLE_STRING")
_rule("VALID_MODE", "MODE_STRING")
_rule("VALID_FORMAT", "FORMAT_STRING")
_rule("MODE_STRING", "CSTRING")
_rule("FORMAT_STRING", "CSTRING")
_rule("WRITABLE_STRING", "CSTRING")
_rule("CSTRING", "CSTRING_NULL")
_rule("WRITABLE_STRING", "WRITABLE_STRING_NULL")
_rule("WRITABLE_STRING_NULL", "CSTRING_NULL")
_rule("NULL", "CSTRING_NULL")
_rule("NULL", "WRITABLE_STRING_NULL")
# A terminated string is at least one readable byte.
_rule("CSTRING", "R_ARRAY", _sup_within(1))
_rule("WRITABLE_STRING", "RW_ARRAY", _sup_within(1))
_rule("CSTRING_NULL", "R_ARRAY_NULL", _sup_within(1))
_rule("WRITABLE_STRING_NULL", "RW_ARRAY_NULL", _sup_within(1))

# --- function pointers ----------------------------------------------------
_rule("VALID_FUNCPTR", "FUNCPTR")
_rule("FUNCPTR", "FUNCPTR_NULL")
_rule("NULL", "FUNCPTR_NULL")
_rule("FUNCPTR_NULL", "UNCONSTRAINED")

# --- file descriptors -------------------------------------------------------
_rule("FD_RONLY", "READABLE_FD")
_rule("FD_RW", "READABLE_FD")
_rule("FD_RW", "WRITABLE_FD")
_rule("FD_WONLY", "WRITABLE_FD")
_rule("READABLE_FD", "OPEN_FD")
_rule("WRITABLE_FD", "OPEN_FD")
_rule("OPEN_FD", "ANY_FD")
_rule("FD_CLOSED", "ANY_FD")
_rule("FD_NEGATIVE", "ANY_FD")
_rule("FD_HUGE", "ANY_FD")

# --- integers (the section 4.2 overlapping-types example) --------------------
# CHAR_RANGE ([-128, 255]) overlaps both INT_NONNEG and INT_NONPOS, so
# the fundamentals are split at the boundaries exactly as the paper
# splits negative/zero/positive for the non-negative example.
_rule("INT_BIG_NEG", "INT_NONPOS")
_rule("INT_SMALL_NEG", "INT_NONPOS")
_rule("INT_SMALL_NEG", "CHAR_RANGE")
_rule("INT_ZERO", "INT_NONPOS")
_rule("INT_ZERO", "INT_NONNEG")
_rule("INT_ZERO", "CHAR_RANGE")
_rule("INT_SMALL_POS", "INT_NONNEG")
_rule("INT_SMALL_POS", "CHAR_RANGE")
_rule("INT_BIG_POS", "INT_NONNEG")
_rule("CHAR_RANGE", "ANY_INT")
_rule("INT_NONNEG", "ANY_INT")
_rule("INT_NONPOS", "ANY_INT")

# --- sizes -------------------------------------------------------------------
_rule("SIZE_ZERO", "REASONABLE_SIZE")
_rule("SIZE_SMALL", "REASONABLE_SIZE")
_rule("REASONABLE_SIZE", "ANY_SIZE")
_rule("SIZE_HUGE", "ANY_SIZE")

# --- reals ---------------------------------------------------------------------
_rule("REAL_NEG", "FINITE_REAL")
_rule("REAL_ZERO", "FINITE_REAL")
_rule("REAL_POS", "FINITE_REAL")
_rule("FINITE_REAL", "ANY_REAL")
_rule("REAL_NAN", "ANY_REAL")
_rule("REAL_INF", "ANY_REAL")


def is_direct_subtype(sub: TypeInstance, sup: TypeInstance) -> bool:
    """True when a single registered rule links ``sub`` under ``sup``."""
    rule = DIRECT_RULES.get((sub.name, sup.name))
    if rule is None:
        return False
    if sub.name == sup.name and sub.param == sup.param:
        return False  # strictness; reflexivity is handled by the lattice
    return rule(sub.param, sup.param)
