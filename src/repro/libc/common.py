"""Shared helpers for the simulated C library models.

All models access memory exclusively through these helpers so that
every byte touched is bounds- and protection-checked by the address
space, and every loop accounts simulated work via ``ctx.step`` (the
hang watchdog).
"""

from __future__ import annotations

from repro.sandbox.context import CallContext, Hang

#: C int limits (LP64: int is 32-bit, long is 64-bit).
INT_MAX = 2**31 - 1
INT_MIN = -(2**31)
LONG_MAX = 2**63 - 1
LONG_MIN = -(2**63)
ULONG_MAX = 2**64 - 1
EOF = -1


def to_int32(value: int) -> int:
    """Wrap a Python int to C ``int`` semantics."""
    return ((value - INT_MIN) % (2**32)) + INT_MIN


def to_int64(value: int) -> int:
    return ((value - LONG_MIN) % (2**64)) + LONG_MIN


def to_uint64(value: int) -> int:
    return value % (2**64)


def read_byte(ctx: CallContext, address: int) -> int:
    ctx.step()
    return ctx.mem.load_byte(address)


def write_byte(ctx: CallContext, address: int, value: int) -> None:
    ctx.step()
    ctx.mem.store_byte(address, value)


def read_cstring(ctx: CallContext, address: int, limit: int | None = None) -> bytes:
    """strlen-style scan, observationally identical to reading byte by
    byte (same fault address, same watchdog step count, Hang-before-
    fault ordering) but executed as one slice scan per region.
    """
    payload, terminated, fault = ctx.mem.scan_cstring(address, limit)
    # The per-byte reference steps once per byte read, including the
    # terminating NUL and the step *preceding* a faulting load.
    ctx.account(len(payload) + (1 if terminated or fault is not None else 0))
    if fault is not None:
        raise fault
    return payload


_PERCENT = ord("%")


def read_literal_run(ctx: CallContext, address: int) -> bytes:
    """Consume a format string's literal bytes up to, not including,
    the next ``%`` or NUL, which the caller then reads itself with
    :func:`read_byte` — the ``strchrnul`` shape of glibc's vfprintf.

    Accounting matches one :func:`read_byte` per literal byte, as
    :func:`read_cstring` does: ``len(run)`` steps, plus the step
    before a faulting load, with a Hang raised before the fault.  The
    scan stops where the watchdog would, so ``bytes_read`` never counts
    a byte the per-byte loop would not have loaded.
    """
    hang_at = max(0, ctx.step_budget - ctx.steps)
    payload, stopped, fault = ctx.mem.scan_cstring(address, hang_at, _PERCENT)
    # Unstopped means a fault or the watchdog limit: either way the
    # per-byte loop steps once more before its next load.
    ctx.account(len(payload) + (0 if stopped else 1))
    if fault is not None:
        raise fault
    return payload


def write_cstring(ctx: CallContext, address: int, value: bytes) -> None:
    """Bulk write of ``value`` + NUL with per-byte-equivalent
    semantics: the successfully written prefix stays visible, faults
    carry the first bad address, and the hang watchdog trips at the
    same byte it would have under byte-at-a-time stepping."""
    payload = bytes(value) + b"\x00"
    hang_at = max(0, ctx.step_budget - ctx.steps)
    attempt = payload if len(payload) <= hang_at else payload[:hang_at]
    written, fault = ctx.mem.copy_in_cstring(address, attempt)
    if fault is not None:
        ctx.steps += written + 1  # the reference steps before the faulting store
        raise fault
    if len(attempt) < len(payload):
        ctx.steps = ctx.step_budget + 1
        raise Hang(f"exceeded step budget of {ctx.step_budget}")
    ctx.steps += len(payload)


def copy_bytes(ctx: CallContext, dst: int, src: int, count: int) -> None:
    """memcpy inner loop in page-sized chunks; faults carry the first
    bad address, which is what fault attribution keys on."""
    offset = 0
    chunk = 4096
    while offset < count:
        step = min(chunk, count - offset)
        payload = ctx.mem.load(src + offset, step)
        ctx.mem.store(dst + offset, payload)
        ctx.step(step)
        offset += step


def fill_bytes(ctx: CallContext, dst: int, value: int, count: int) -> None:
    offset = 0
    chunk = 4096
    payload_chunk = bytes([value & 0xFF]) * chunk
    while offset < count:
        step = min(chunk, count - offset)
        ctx.mem.store(dst + offset, payload_chunk[:step])
        ctx.step(step)
        offset += step
