"""Simulated time.h functions.

``struct tm`` is 44 bytes in our layout — nine 32-bit fields plus the
GNU ``tm_gmtoff`` long — which is exactly the size the paper's fault
injector discovered for ``asctime`` (Figure 2's ``R_ARRAY_NULL[44]``).
"""

from __future__ import annotations

from repro.libc import common
from repro.libc.errno_codes import EINVAL, EOVERFLOW
from repro.libc.runtime import TM_SIZE
from repro.memory import NULL
from repro.sandbox.context import CallContext

# struct tm field offsets
OFF_SEC = 0
OFF_MIN = 4
OFF_HOUR = 8
OFF_MDAY = 12
OFF_MON = 16
OFF_YEAR = 20
OFF_WDAY = 24
OFF_YDAY = 28
OFF_ISDST = 32
OFF_GMTOFF = 36  # long, bytes 36..44

_MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
_DAYS = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"]

#: Our simulated glibc refuses timestamps it cannot represent in its
#: internal 32-bit math, giving the gmtime/mktime EOVERFLOW paths.
TIME_MAX = 2**31 - 1


def _read_tm(ctx: CallContext, tm: int) -> dict[str, int]:
    """Load the full 44-byte structure (the read that makes undersized
    buffers crash at exactly the byte the injector attributes)."""
    raw = {}
    for name, offset in (
        ("sec", OFF_SEC), ("min", OFF_MIN), ("hour", OFF_HOUR),
        ("mday", OFF_MDAY), ("mon", OFF_MON), ("year", OFF_YEAR),
        ("wday", OFF_WDAY), ("yday", OFF_YDAY), ("isdst", OFF_ISDST),
    ):
        raw[name] = ctx.mem.load_i32(tm + offset)
        ctx.step()
    raw["gmtoff"] = ctx.mem.load_i64(tm + OFF_GMTOFF)
    return raw


def _write_tm(ctx: CallContext, tm: int, fields: dict[str, int]) -> None:
    for name, offset in (
        ("sec", OFF_SEC), ("min", OFF_MIN), ("hour", OFF_HOUR),
        ("mday", OFF_MDAY), ("mon", OFF_MON), ("year", OFF_YEAR),
        ("wday", OFF_WDAY), ("yday", OFF_YDAY), ("isdst", OFF_ISDST),
    ):
        ctx.mem.store_i32(tm + offset, fields.get(name, 0))
        ctx.step()
    ctx.mem.store_i64(tm + OFF_GMTOFF, fields.get("gmtoff", 0))


def _breakdown(seconds: int) -> dict[str, int]:
    """Civil-time breakdown of a POSIX timestamp (UTC)."""
    days, rem = divmod(seconds, 86400)
    hour, rem = divmod(rem, 3600)
    minute, sec = divmod(rem, 60)
    # 1970-01-01 was a Thursday (wday 4).
    wday = (4 + days) % 7
    year = 1970
    while True:
        leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
        length = 366 if leap else 365
        if days < length:
            break
        days -= length
        year += 1
    month_lengths = [31, 29 if leap else 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    mon = 0
    yday = days
    while days >= month_lengths[mon]:
        days -= month_lengths[mon]
        mon += 1
    return {
        "sec": sec, "min": minute, "hour": hour, "mday": days + 1,
        "mon": mon, "year": year - 1900, "wday": wday, "yday": yday,
        "isdst": 0, "gmtoff": 0,
    }


def _format_tm(fields: dict[str, int]) -> bytes:
    wday = fields["wday"] % 7
    mon = fields["mon"] % 12
    return (
        f"{_DAYS[wday]} {_MONTHS[mon]} {fields['mday'] % 100:2d} "
        f"{fields['hour'] % 100:02d}:{fields['min'] % 100:02d}:"
        f"{fields['sec'] % 100:02d} {1900 + fields['year']}\n"
    ).encode()


def libc_asctime(ctx: CallContext, tm: int) -> int:
    """``char *asctime(const struct tm *tm)`` — reads the whole 44
    bytes, tolerates garbage *content*, rejects NULL with EINVAL
    (matching the paper's Figure 2 declaration)."""
    if tm == NULL:
        ctx.set_errno(EINVAL)
        return NULL
    fields = _read_tm(ctx, tm)
    text = _format_tm(fields)[:25]
    common.write_cstring(ctx, ctx.runtime.asctime_buffer, text)
    return ctx.runtime.asctime_buffer


def libc_ctime(ctx: CallContext, timep: int) -> int:
    """``char *ctime(const time_t *timep)`` — dereferences the pointer
    (NULL crashes) then formats like asctime."""
    seconds = ctx.mem.load_i64(timep)
    if not 0 <= seconds <= TIME_MAX:
        ctx.set_errno(EOVERFLOW)
        return NULL
    text = _format_tm(_breakdown(seconds))[:25]
    common.write_cstring(ctx, ctx.runtime.asctime_buffer, text)
    return ctx.runtime.asctime_buffer


def libc_gmtime(ctx: CallContext, timep: int) -> int:
    """``struct tm *gmtime(const time_t *timep)`` — fills the static
    buffer; out-of-range timestamps give EOVERFLOW."""
    seconds = ctx.mem.load_i64(timep)
    if not 0 <= seconds <= TIME_MAX:
        ctx.set_errno(EOVERFLOW)
        return NULL
    _write_tm(ctx, ctx.runtime.static_tm, _breakdown(seconds))
    return ctx.runtime.static_tm


def libc_localtime(ctx: CallContext, timep: int) -> int:
    """``struct tm *localtime(const time_t *timep)`` — our TZ is UTC,
    so this is gmtime with the same static buffer."""
    return libc_gmtime(ctx, timep)


def libc_mktime(ctx: CallContext, tm: int) -> int:
    """``long mktime(struct tm *tm)`` — reads *and normalizes* the
    structure in place, which is why it needs read-write access."""
    fields = _read_tm(ctx, tm)
    year = fields["year"] + 1900
    if not 1970 <= year < 2038:
        ctx.set_errno(EOVERFLOW)
        return -1
    # Rough normalization: fold field overflow into the timestamp.
    seconds = fields["sec"] + 60 * (fields["min"] + 60 * fields["hour"])
    days = fields["mday"] - 1 + 31 * fields["mon"] + 365 * (year - 1970)
    total = seconds + days * 86400
    if not 0 <= total <= TIME_MAX:
        ctx.set_errno(EOVERFLOW)
        return -1
    _write_tm(ctx, tm, _breakdown(total))
    return total


def libc_strftime(ctx: CallContext, s: int, maxsize: int, fmt: int, tm: int) -> int:
    """``size_t strftime(char *s, size_t max, const char *format,
    const struct tm *tm)``"""
    fields = _read_tm(ctx, tm)
    out = bytearray()
    cursor = fmt
    while True:
        run = common.read_literal_run(ctx, cursor)
        out += run
        cursor += len(run)
        byte = common.read_byte(ctx, cursor)
        if byte == 0:
            break
        cursor += 1
        if byte != ord("%"):
            out.append(byte)  # a signal handler rewrote the stop byte
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
        return 0  # output (plus NUL) does not fit
    common.write_cstring(ctx, s, bytes(out))
    return len(out)


def libc_difftime(ctx: CallContext, end: int, start: int) -> float:
    """``double difftime(time_t end, time_t start)`` — pure arithmetic
    on values, one of the never-crashing functions."""
    return float(common.to_int64(end) - common.to_int64(start))


def libc_time(ctx: CallContext, tloc: int) -> int:
    """``time_t time(time_t *tloc)`` — stores through ``tloc`` when it
    is non-NULL (an unchecked write)."""
    now = ctx.kernel.now
    if tloc != NULL:
        ctx.mem.store_i64(tloc, now)
    return now


def libc_clock(ctx: CallContext) -> int:
    """``clock_t clock(void)``"""
    return ctx.kernel.now % 1_000_000
