"""Differential conformance of libc models against the host's glibc.

Benign inputs only — valid, NUL-terminated strings — run through the
sandboxed model and through ``libc.so.6`` via ``ctypes`` on a mirrored
buffer; the return value and the ``endptr`` offset must agree.  The
whole module skips when the host has no ``libc.so.6``.
"""

from __future__ import annotations

import ctypes

import pytest

from repro.libc import BY_NAME, standard_runtime
from repro.sandbox import Sandbox

try:
    HOST_LIBC = ctypes.CDLL("libc.so.6")
except OSError:  # pragma: no cover - depends on the host
    pytest.skip("host libc.so.6 is not available", allow_module_level=True)

RESTYPES = {"strtol": ctypes.c_long, "strtoul": ctypes.c_ulong}

#: ``(text, base)``.  The first four consume only a leading "0": glibc
#: ends the parse just past it (endptr 1, 1, 2 and 4).
STRTOL_CASES = [
    (b"0x", 16),
    (b"0X", 0),
    (b"-0x", 0),
    (b"  +0b101", 0),
    (b"08", 0),
    (b"0", 0),
    (b"0x1f", 0),
    (b"0x1f", 16),
    (b"017", 0),
    (b"  -17", 10),
    (b"zz", 36),
    (b"", 10),
    (b"+", 10),
    (b"12abc", 10),
]


def _host(name: str, text: bytes, base: int) -> tuple[int, int]:
    function = getattr(HOST_LIBC, name)
    function.restype = RESTYPES[name]
    function.argtypes = [
        ctypes.c_char_p, ctypes.POINTER(ctypes.c_void_p), ctypes.c_int,
    ]
    buffer = ctypes.create_string_buffer(text)
    end = ctypes.c_void_p()
    value = function(buffer, ctypes.byref(end), base)
    return value, end.value - ctypes.addressof(buffer)


def _model(name: str, text: bytes, base: int) -> tuple[int, int]:
    runtime = standard_runtime()
    nptr = runtime.space.alloc_cstring(text).base
    endptr = runtime.space.map_region(8).base
    outcome = Sandbox().call(BY_NAME[name].model, (nptr, endptr, base), runtime)
    assert outcome.returned
    return outcome.return_value, runtime.space.load_u64(endptr) - nptr


@pytest.mark.parametrize("name", sorted(RESTYPES))
@pytest.mark.parametrize("text,base", STRTOL_CASES)
def test_strtol_family_matches_host_glibc(name, text, base):
    assert _model(name, text, base) == _host(name, text, base)
