"""Differential equivalence: bulk format engines vs per-byte oracles.

``strftime``, ``fprintf`` (through the shared printf engine) and
``fscanf`` consume each literal run of their format string with one
``read_literal_run`` scan; ``repro.libc.reference_formats`` keeps the
original one-``read_byte``-per-format-byte loops as the executable
specification.  Through the sandbox the two must agree on terminal
status, return value, errno, step count, fault coordinates, the
post-call memory image and the kernel's file contents and offsets —
for formats that are terminated, unterminated at a region end,
read-protected, freed, NULL or ``INVALID_POINTER``, for a ``%n``
that rewrites the format string itself, and for every watchdog budget
around the oracle's exact step count.
"""

from __future__ import annotations

import random

import pytest

from repro.libc import BY_NAME, common, fileio, reference_formats, standard_runtime
from repro.libc.runtime import TM_SIZE
from repro.memory import INVALID_POINTER, NULL, Protection
from repro.memory.faults import SegmentationFault
from repro.sandbox import Sandbox
from repro.sandbox.context import CallContext, Hang, InterruptPlan
from tests.test_strings_equivalence import _outcome_key

FUNCTIONS = sorted(reference_formats.FORMAT_REFERENCE_MODELS)

TRIALS = 80

FULL_BUDGET = 1_000_000

#: Conversion bytes each engine understands, plus unknown ones, a
#: digit (printf widths) and NUL (a format ending right after '%').
SPECS = {
    "strftime": b"YmdHMSab%q\x00",
    "fprintf": b"sdiuxcn%q9\x00",
    "fscanf": b"dsdsq%\x00",
}

SCAN_INPUT = b"42 word -7 x 123456789012 tail\n"


def _snapshot(runtime):
    """Memory, errno and every open file's bytes and offset."""
    regions = tuple(
        (region.base, region.size, region.prot.value, region.freed, bytes(region.data))
        for region in runtime.space.regions()
    )
    files = tuple(
        (fd, handle.offset, handle.flags, bytes(handle.node.data))
        for fd, handle in sorted(runtime.kernel.fds.items())
    )
    return regions, runtime.errno, files


def _format_bytes(name: str, rng: random.Random) -> bytes:
    """Literal runs of random length between random conversions."""
    pieces = []
    for _ in range(rng.randint(0, 5)):
        pieces.append(bytes(rng.choice(b"AB -:,z") for _ in range(rng.randint(0, 30))))
        pieces.append(b"%" + bytes([rng.choice(SPECS[name])]))
    pieces.append(bytes(rng.choice(b"AB -:") for _ in range(rng.randint(0, 30))))
    return b"".join(pieces)


def _format_pointer(space, name: str, rng: random.Random) -> tuple[int, int]:
    """A format string of a random shape: ``(pointer, region size)``."""
    text = _format_bytes(name, rng)
    shape = rng.choice(
        ["term", "term", "term", "unterm", "ro_none", "wo", "freed", "zero",
         "null", "invalid"]
    )
    if shape == "null":
        return NULL, 0
    if shape == "invalid":
        return INVALID_POINTER, 0
    if shape == "zero":
        return space.map_region(0).base, 0
    if shape == "unterm":
        region = space.alloc_bytes(text.replace(b"\x00", b"A") or b"A")
    else:
        region = space.alloc_cstring(text)
    if shape == "ro_none":
        region.prot = Protection.NONE
    elif shape == "wo":
        region.prot = Protection.WRITE
    elif shape == "freed":
        region.freed = True
    offset = rng.randint(0, region.size - 1) if rng.random() < 0.2 else 0
    return region.base + offset, region.size


def _open(runtime, path: bytes, mode: bytes) -> int:
    space = runtime.space
    return fileio.libc_fopen(
        CallContext(runtime), space.alloc_cstring(path).base,
        space.alloc_cstring(mode).base,
    )


def _build_case(name: str, rng: random.Random):
    """A runtime plus the argument tuple for one call of ``name``."""
    base = standard_runtime()
    space = base.space
    fmt, fmt_size = _format_pointer(space, name, rng)
    if name == "strftime":
        tm = space.alloc_bytes(bytes(rng.randrange(256) for _ in range(TM_SIZE)))
        out = space.map_region(rng.choice([0, 4, 16, 64, 256]))
        maxsize = rng.choice([0, 1, 8, 64, 256, 2**31])
        return base, (out.base, maxsize, fmt, rng.choice([tm.base, tm.base, NULL]))
    if name == "fprintf":
        fp = _open(base, b"/tmp/out.txt", b"w")
    else:
        base.kernel.add_file("/tmp/scan.txt", SCAN_INPUT)
        fp = _open(base, b"/tmp/scan.txt", b"r")
    target = space.map_region(rng.choice([2, 4, 16, 64]))
    text = space.alloc_cstring(b"arg")
    # %n may land on the format string itself, ahead of the cursor, so
    # later literal runs must be read from the live region.
    pool = [
        target.base, text.base, NULL, INVALID_POINTER, 7, -3,
        fmt, fmt + (rng.randint(0, max(0, fmt_size - 4)) if fmt_size else 0),
    ]
    args = tuple(rng.choice(pool) for _ in range(rng.randint(0, 5)))
    return base, (fp, fmt) + args


def _assert_equivalent(fast_model, oracle, base, args, context):
    probe = Sandbox(step_budget=FULL_BUDGET).call(oracle, args, base.fork())
    budgets = {FULL_BUDGET}
    for delta in range(3):
        budgets.add(max(0, probe.steps - delta))
        budgets.add(probe.steps + delta)
    for budget in sorted(budgets):
        fast_runtime = base.fork()
        oracle_runtime = base.fork()
        fast = Sandbox(step_budget=budget).call(fast_model, args, fast_runtime)
        slow = Sandbox(step_budget=budget).call(oracle, args, oracle_runtime)
        where = f"{context} args={args} budget={budget}"
        assert _outcome_key(fast) == _outcome_key(slow), where
        assert _snapshot(fast_runtime) == _snapshot(oracle_runtime), where


@pytest.mark.parametrize("name", FUNCTIONS)
def test_bulk_format_engine_matches_oracle(name):
    rng = random.Random(f"format-equivalence:{name}")
    fast_model = BY_NAME[name].model
    oracle = reference_formats.FORMAT_REFERENCE_MODELS[name]
    for trial in range(TRIALS):
        base, args = _build_case(name, rng)
        _assert_equivalent(fast_model, oracle, base, args, f"{name} trial={trial}")


def test_percent_n_rewriting_the_format_is_seen():
    """``%n`` stores the byte count over the format's own tail: the
    next literal run is scanned from the rewritten bytes."""
    base = standard_runtime()
    space = base.space
    fmt = space.alloc_cstring(b"AB%nCDEFGH").base
    fp = _open(base, b"/tmp/out.txt", b"w")
    # len(out) == 2 is stored as b"\x02\x00\x00\x00" over "CDEF": the
    # NUL at fmt + 5 now ends the format after one more literal byte.
    args = (fp, fmt, fmt + 4)
    _assert_equivalent(
        BY_NAME["fprintf"].model, reference_formats.libc_fprintf, base, args,
        "percent-n",
    )
    runtime = base.fork()
    outcome = Sandbox().call(BY_NAME["fprintf"].model, args, runtime)
    assert outcome.return_value == 3
    assert bytes(runtime.kernel.lookup("/tmp/out.txt").data) == b"AB\x02"


def test_signal_rewriting_the_stop_byte_is_read_as_literal():
    """A handler firing at the end of a literal run may rewrite the
    ``%`` the scan stopped at; the engine reads the new byte as the
    per-byte loop does."""
    base = standard_runtime()
    fmt = base.space.alloc_cstring(b"AB%d").base
    fp = _open(base, b"/tmp/out.txt", b"w")

    def rewrite(ctx):
        ctx.mem.store_byte(fmt + 2, ord("Z"))

    written = []
    for model in (BY_NAME["fprintf"].model, reference_formats.libc_fprintf):
        runtime = base.fork()
        runtime.pending_interrupt = InterruptPlan(offset=2, fire=rewrite)
        outcome = Sandbox().call(model, (fp, fmt, 5), runtime)
        assert outcome.return_value == 4
        written.append(bytes(runtime.kernel.lookup("/tmp/out.txt").data))
    assert written == [b"ABZd", b"ABZd"]


class TestCounterHonesty:
    """``bytes_read`` counts the bytes a per-byte loop would load."""

    def _strftime(self, fmt: bytes, model=None):
        runtime = standard_runtime()
        space = runtime.space
        fmt_base = space.alloc_bytes(fmt).base
        tm = space.map_region(TM_SIZE).base
        out = space.map_region(8).base
        before = space.bytes_read
        outcome = Sandbox().call(
            model or BY_NAME["strftime"].model, (out, 0, fmt_base, tm), runtime
        )
        return outcome, space.bytes_read - before

    @pytest.mark.parametrize("length", [0, 1, 4095, 4096, 70_000])
    def test_literal_format_counts_every_byte_once(self, length):
        fmt = b"L" * length + b"\x00"
        outcome, delta = self._strftime(fmt)
        assert outcome.returned
        # The 44-byte struct tm, the literal bytes and the NUL.
        assert delta == TM_SIZE + length + 1
        _, oracle_delta = self._strftime(fmt, reference_formats.libc_strftime)
        assert delta == oracle_delta

    def test_unterminated_format_counts_only_mapped_bytes(self):
        outcome, delta = self._strftime(b"U" * 5000)
        assert outcome.crashed
        assert delta == TM_SIZE + 5000

    def test_hang_mid_run_counts_only_bytes_before_the_watchdog(self):
        runtime = standard_runtime()
        space = runtime.space
        fmt = space.alloc_cstring(b"H" * 1000).base
        ctx = CallContext(runtime, step_budget=100)
        before = space.bytes_read
        with pytest.raises(Hang):
            common.read_literal_run(ctx, fmt)
        assert ctx.steps == 101
        assert space.bytes_read - before == 100

    def test_faulting_run_charges_the_step_before_the_load(self):
        runtime = standard_runtime()
        region = runtime.space.alloc_bytes(b"F" * 10)
        ctx = CallContext(runtime)
        with pytest.raises(SegmentationFault) as fault:
            common.read_literal_run(ctx, region.base)
        assert fault.value.address == region.end
        assert ctx.steps == 11
