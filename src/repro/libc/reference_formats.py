"""Reference per-byte models of the format-string engines.

These are the seed loops of ``strftime``, the printf engine behind
``fprintf`` and ``fscanf``: one ``read_byte`` per format byte, so
every literal byte pays a region lookup, a bounds/protection check
and a watchdog step.  :mod:`repro.libc.timefns` and
:mod:`repro.libc.fileio` now consume each literal run with one
:func:`repro.libc.common.read_literal_run` scan and must stay
indistinguishable from these loops through the sandbox: outcome
status, return value, errno, step count, fault address and reason,
and the post-call memory and file images.

One difference is deliberate and shared with ``read_cstring``: under
:class:`~repro.sandbox.context.InterruptibleContext` an armed signal
fires at the bulk accounting boundary (after the whole literal run),
not at the exact byte where these loops would deliver it.

``tests/test_format_equivalence.py`` diffs the bulk models against
these oracles; ``benchmarks/test_bench_memory_hotpath.py`` times one
against the other.  Nothing here is used on a production path.
"""

from __future__ import annotations

from repro.libc import common
from repro.libc.common import EOF
from repro.libc.errno_codes import EINVAL
from repro.libc.fileio import file_fd, touch_buffer
from repro.libc.kernel import KernelError
from repro.libc.timefns import _DAYS, _MONTHS, _read_tm
from repro.memory import INVALID_POINTER
from repro.sandbox.context import CallContext


def libc_strftime(ctx: CallContext, s: int, maxsize: int, fmt: int, tm: int) -> int:
    fields = _read_tm(ctx, tm)
    out = bytearray()
    cursor = fmt
    while True:
        byte = common.read_byte(ctx, cursor)
        if byte == 0:
            break
        cursor += 1
        if byte != ord("%"):
            out.append(byte)
            continue
        spec = common.read_byte(ctx, cursor)
        cursor += 1
        if spec == ord("Y"):
            out += str(1900 + fields["year"]).encode()
        elif spec == ord("m"):
            out += f"{(fields['mon'] % 12) + 1:02d}".encode()
        elif spec == ord("d"):
            out += f"{fields['mday'] % 100:02d}".encode()
        elif spec == ord("H"):
            out += f"{fields['hour'] % 100:02d}".encode()
        elif spec == ord("M"):
            out += f"{fields['min'] % 100:02d}".encode()
        elif spec == ord("S"):
            out += f"{fields['sec'] % 100:02d}".encode()
        elif spec == ord("a"):
            out += _DAYS[fields["wday"] % 7].encode()
        elif spec == ord("b"):
            out += _MONTHS[fields["mon"] % 12].encode()
        elif spec == ord("%"):
            out.append(ord("%"))
        elif spec == 0:
            break
        else:
            ctx.set_errno(EINVAL)
            return 0
    if len(out) + 1 > maxsize:
        return 0
    common.write_cstring(ctx, s, bytes(out))
    return len(out)


def _format(ctx: CallContext, fmt: int, args: tuple) -> bytes:
    out = bytearray()
    cursor = fmt
    arg_index = 0

    def next_arg() -> int:
        nonlocal arg_index
        value = args[arg_index] if arg_index < len(args) else INVALID_POINTER
        arg_index += 1
        return value

    def padded(piece: bytes, width: int) -> bytes:
        if width <= len(piece):
            return piece
        ctx.account(width - len(piece))
        return b" " * (width - len(piece)) + piece

    while True:
        byte = common.read_byte(ctx, cursor)
        if byte == 0:
            break
        cursor += 1
        if byte != ord("%"):
            out.append(byte)
            continue
        spec = common.read_byte(ctx, cursor)
        cursor += 1
        width = 0
        while ord("0") <= spec <= ord("9"):
            width = width * 10 + (spec - ord("0"))
            spec = common.read_byte(ctx, cursor)
            cursor += 1
        if spec == ord("%"):
            out.append(ord("%"))
        elif spec == ord("s"):
            out += padded(common.read_cstring(ctx, next_arg()), width)
        elif spec in (ord("d"), ord("i")):
            out += padded(str(common.to_int64(next_arg())).encode(), width)
        elif spec == ord("u"):
            out += padded(str(common.to_uint64(next_arg())).encode(), width)
        elif spec == ord("x"):
            out += padded(format(common.to_uint64(next_arg()), "x").encode(), width)
        elif spec == ord("c"):
            out += padded(bytes([next_arg() & 0xFF]), width)
        elif spec == ord("n"):
            ctx.mem.store_i32(next_arg(), len(out))
        elif spec == 0:
            break
        else:
            out.append(ord("%"))
            if width:
                out += str(width).encode()
            out.append(spec)
    return bytes(out)


def libc_fprintf(ctx: CallContext, fp: int, fmt: int, *args: int) -> int:
    payload = _format(ctx, fmt, args)
    touch_buffer(ctx, fp)
    fd = file_fd(ctx, fp)
    try:
        ctx.kernel.write(fd, payload)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return -1
    return len(payload)


def libc_fscanf(ctx: CallContext, fp: int, fmt: int, *args: int) -> int:
    touch_buffer(ctx, fp)
    fd = file_fd(ctx, fp)
    arg_index = 0
    converted = 0
    cursor = fmt

    def next_arg() -> int:
        nonlocal arg_index
        value = args[arg_index] if arg_index < len(args) else INVALID_POINTER
        arg_index += 1
        return value

    def read_token() -> bytes:
        token = bytearray()
        while True:
            try:
                data = ctx.kernel.read(fd, 1)
            except KernelError as err:
                ctx.set_errno(err.errno)
                return bytes(token)
            if not data or data[0] in b" \t\n":
                break
            token += data
            ctx.step()
        return bytes(token)

    while True:
        byte = common.read_byte(ctx, cursor)
        if byte == 0:
            break
        cursor += 1
        if byte != ord("%"):
            continue
        spec = common.read_byte(ctx, cursor)
        cursor += 1
        token = read_token()
        if not token:
            break
        if spec == ord("d"):
            try:
                value = int(token)
            except ValueError:
                break
            ctx.mem.store_i32(next_arg(), value)
            converted += 1
        elif spec == ord("s"):
            common.write_cstring(ctx, next_arg(), token)
            converted += 1
        else:
            break
    return converted if converted else EOF


#: Bulk model name -> per-byte oracle.  Kept apart from
#: ``reference_strings.REFERENCE_MODELS``, which the injector-plan
#: bench iterates as its string-family baseline.
FORMAT_REFERENCE_MODELS = {
    "strftime": libc_strftime,
    "fprintf": libc_fprintf,
    "fscanf": libc_fscanf,
}
