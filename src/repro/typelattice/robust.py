"""Robust argument type computation (paper section 4.3).

Given the outcomes of all test cases for one argument — each test case
tagged with the *fundamental* type of the injected value — compute the
argument's robust type:

    the weakest type ``T`` such that every test case for which the
    function returned successfully lies in ``V(T)``, and every strict
    supertype of ``T`` contains at least one crashing test case.

Where the paper's definition leaves slack (several incomparable
weakest candidates; fundamentals whose values both succeeded and
crashed), we resolve it the way the examples in the paper do:

* candidates must contain all success cases ("feasible");
* among feasible candidates, first minimize the number of *crashing*
  fundamentals contained (zero when a crash-free candidate exists —
  then the result is exactly the paper's weakest crash-free
  supertype, e.g. ``R_ARRAY_NULL[44]`` for ``asctime``);
* among those, take the weakest; remaining ties break on observed
  coverage and then deterministically on the rendered name.

A *safe* argument type additionally contains no crashing case and
excludes nothing but crashing cases; whenever a safe type exists the
computed robust type is safe, as the paper requires.

The ``checkable`` filter models the wrapper generator's reality that
only types with checking functions can be enforced: the fully
automated flow cannot check ``OPEN_DIR`` (no POSIX verifier for
``DIR*``), so its enforced type weakens to accessible memory — which
is precisely why ``closedir`` still crashes under the full-auto
wrapper in Figure 6 and needs the manually added stateful assertion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.typelattice.instances import TypeInstance
from repro.typelattice.lattice import Lattice, bits


class TestResult(enum.Enum):
    """Per-test-case outcome class used by the computation."""

    __test__ = False  # not a pytest collection target

    SUCCESS = "success"  # returned without setting errno
    ERROR = "error"  # returned with errno set (graceful rejection)
    FAILURE = "failure"  # crash, hang or abort


@dataclass(frozen=True)
class Observation:
    """One test case's fundamental type and its outcome.

    ``blamed`` is False when a crash occurred but fault attribution
    assigned it to a *different* argument of the call; such
    observations say nothing about this argument and are ignored.
    """

    fundamental: TypeInstance
    result: TestResult
    blamed: bool = True


@dataclass
class RobustType:
    """Result of the computation for one argument.

    Attributes:
        robust: the enforceable robust type (respects ``checkable``).
        ideal: the robust type with no checkability restriction; when
            it differs from ``robust`` the argument needs a manual
            (semi-auto) edit to be fully protected.
        safe: True when ``ideal`` is a *safe* argument type.
        crash_free: True when ``robust`` contains no fundamental that
            was observed to crash — i.e. the check blocks every crash
            the injector found for this argument.
        successes / failures: the observed fundamental sets, kept for
            reporting and the declaration XML.
    """

    robust: TypeInstance
    ideal: TypeInstance
    safe: bool
    crash_free: bool
    successes: frozenset[TypeInstance] = field(default_factory=frozenset)
    failures: frozenset[TypeInstance] = field(default_factory=frozenset)


CheckablePredicate = Callable[[TypeInstance], bool]


def compute_robust_type(
    observations: Iterable[Observation],
    lattice: Optional[Lattice] = None,
    checkable: Optional[CheckablePredicate] = None,
    conservative: bool = False,
) -> RobustType:
    """Compute the robust type for one argument.

    Args:
        observations: all test cases for this argument, across the
            whole (adaptive) injection run.
        lattice: the instantiated lattice to search; by default one is
            built over the size parameters observed in the
            fundamentals.
        checkable: restricts the *enforced* robust type to types the
            wrapper generator can emit a check for.  The unrestricted
            ``ideal`` type is always reported as well.
        conservative: the paper's stricter variant — anchor
            feasibility on every test case that *returned* (with or
            without an error) instead of only on successful returns.
            The default matches the paper's atomic-function
            assumption ("we have not experienced any problems by
            assuming functions to be atomic").
    """
    obs = [o for o in observations if o.blamed]
    if not obs:
        raise ValueError("cannot compute a robust type without observations")

    if lattice is None:
        sizes = {o.fundamental.param for o in obs if o.fundamental.param is not None}
        lattice = Lattice.for_sizes(sizes or {0})

    returned = {o.fundamental for o in obs if o.result is not TestResult.FAILURE}
    failures = {o.fundamental for o in obs if o.result is TestResult.FAILURE}
    if conservative:
        successes = returned
    else:
        successes = {o.fundamental for o in obs if o.result is TestResult.SUCCESS}
    if not successes:
        # Every single test either crashed or was gracefully rejected.
        # Anchoring on the empty set would let the computation pick an
        # absurdly strong type (reject everything); fall back to the
        # conservative anchor so values the function merely rejects
        # stay allowed.
        successes = returned

    # A success outside the lattice has no supertype in it.
    feasible = lattice.full
    for s in successes:
        i = lattice.index.get(s)
        feasible &= 0 if i is None else lattice.up[i]
    if not feasible:
        raise ValueError(
            "lattice has no common supertype for the observed successes; "
            "the top type is missing from the instance set"
        )

    fail = lattice.mask(failures)
    good = lattice.mask(returned - failures)
    ideal = _select(lattice, feasible, fail, good)
    robust = ideal
    if checkable is not None:
        enforceable = 0
        for i in bits(feasible):
            if checkable(lattice.instances[i]):
                enforceable |= 1 << i
        if enforceable:
            robust = _select(lattice, enforceable, fail, good)

    inside = lattice.down[lattice.index[ideal]]
    nonfail = lattice.mask(returned)
    # The paper's safe-argument-type test: no contained test case
    # crashed, and every excluded one did.  A returning fundamental
    # outside the lattice lies outside every type.
    safe = (
        nonfail.bit_count() == len(returned)
        and not fail & inside
        and not nonfail & ~inside
    )
    return RobustType(
        robust=robust,
        ideal=ideal,
        safe=safe,
        crash_free=not fail & lattice.down[lattice.index[robust]],
        successes=frozenset(successes),
        failures=frozenset(failures),
    )


def _select(lattice: Lattice, candidates: int, fail: int, good: int) -> TypeInstance:
    """Pick the robust type from the feasible ``candidates`` mask (see
    module doc).  ``fail`` masks the crashing fundamentals, ``good``
    the observed fundamentals that never crashed."""
    down = lattice.down
    crashes = {i: (fail & down[i]).bit_count() for i in bits(candidates)}
    best_crashes = min(crashes.values())
    leanest = 0
    for i, count in crashes.items():
        if count == best_crashes:
            leanest |= 1 << i
    # Weakest: no strict supertype among the leanest candidates.
    weakest = [i for i in bits(leanest) if lattice.up[i] & leanest == 1 << i]
    if len(weakest) == 1:
        return lattice.instances[weakest[0]]
    # Tie-break: prefer the candidate covering more of the observed
    # non-crashing fundamentals (it rejects fewer legitimate values),
    # then the deterministic rendered name.
    best = min(
        weakest,
        key=lambda i: (-(good & down[i]).bit_count(), lattice.instances[i].render()),
    )
    return lattice.instances[best]
