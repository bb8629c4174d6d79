"""The bitmask lattice against brute force, and mask-based robust-type
selection against the set-based reference.

Each property draws a size pool, and sometimes registers a random
extension family (as :mod:`tests.test_extensibility` registers its
socket family) linked into the shipped hierarchies.  It then checks
that

* ``up``/``down`` equal a brute-force reflexive-transitive closure of
  :func:`is_direct_subtype`, and ``down`` is the transpose of ``up``;
* :func:`compute_robust_type` agrees with :func:`reference_robust_type`
  — the set-based selection the masks replaced, kept here as the
  oracle — on random observation sets, including fundamentals absent
  from the lattice, the empty-success fallback, ``conservative=True``
  and ``checkable`` filters; explicit examples add the coverage
  tie-break, which random draws reach about once in a thousand.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import example, given, settings, strategies as st

from repro.typelattice import (
    Lattice,
    Observation,
    TestResult,
    TypeInstance,
    build_instances,
    compute_robust_type,
    is_direct_subtype,
    registry as R,
)
from repro.typelattice.lattice import bits
from repro.typelattice.rules import DIRECT_RULES

#: Fixed example sequence, independent of any example database.
SEEDED = settings(derandomize=True, database=None, deadline=None)

_SIZES = st.sets(st.integers(min_value=0, max_value=20000), max_size=5)

#: Templates an extension family may hang under or above.
_ANCHORS = ["NULL", "INVALID", "UNCONSTRAINED", "ANY_INT", "CSTRING", "OPEN_FD"]


def _always(sub, sup) -> bool:
    return True


@st.composite
def extension_families(draw):
    """A random acyclic family of new types: ``EXT_i`` may sit under
    ``EXT_j`` only for ``i < j``, and may link to shipped templates."""
    count = draw(st.integers(min_value=1, max_value=6))
    instances = tuple(
        TypeInstance(f"EXT_{i}", fundamental=draw(st.booleans()), family="ext")
        for i in range(count)
    )
    edges = set()
    for i in range(count):
        for j in range(i + 1, count):
            if draw(st.booleans()):
                edges.add((f"EXT_{i}", f"EXT_{j}"))
        if draw(st.booleans()):
            edges.add((f"EXT_{i}", draw(st.sampled_from(_ANCHORS[2:]))))
    if draw(st.booleans()):
        edges.add((draw(st.sampled_from(_ANCHORS[:2])), f"EXT_{count - 1}"))
    return instances, frozenset(edges)


@contextmanager
def registered(family):
    """Register ``family``'s instances and rules for the duration."""
    if family is None:
        yield
        return
    instances, edges = family
    R.register_extension_types(*instances)
    for edge in edges:
        DIRECT_RULES[edge] = _always
    try:
        yield
    finally:
        R.unregister_extension_types(*instances)
        for edge in edges:
            DIRECT_RULES.pop(edge, None)


def brute_force_closure(instances: list[TypeInstance]) -> list[set[int]]:
    """``reach[i]``: indices ``j`` with ``instances[i] <= instances[j]``,
    by depth-first search over every pair tested with
    :func:`is_direct_subtype`."""
    n = len(instances)
    direct = [
        [j for j in range(n) if is_direct_subtype(instances[i], instances[j])]
        for i in range(n)
    ]
    reach = []
    for start in range(n):
        seen = {start}
        stack = [start]
        while stack:
            for j in direct[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    return reach


@settings(SEEDED, max_examples=60)
@given(_SIZES, st.one_of(st.none(), extension_families()))
def test_masks_equal_brute_force_closure(sizes, family):
    with registered(family):
        lattice = Lattice(build_instances(sizes))
        reach = brute_force_closure(lattice.instances)
    n = len(lattice.instances)
    assert lattice.index == {t: i for i, t in enumerate(lattice.instances)}
    for i in range(n):
        assert set(bits(lattice.up[i])) == reach[i], lattice.instances[i]
        assert set(bits(lattice.down[i])) == {j for j in range(n) if i in reach[j]}
        for j in range(n):
            assert bool(lattice.up[i] >> j & 1) == bool(lattice.down[j] >> i & 1)


# ----------------------------------------------------------------------
# the set-based reference selection
# ----------------------------------------------------------------------


def reference_robust_type(observations, lattice, checkable=None, conservative=False):
    """Section 4.3 selection over instance sets and pairwise
    ``is_subtype`` queries; returns ``(robust, ideal, safe, crash_free)``."""
    obs = [o for o in observations if o.blamed]
    if not obs:
        raise ValueError("cannot compute a robust type without observations")
    anchor_results = {TestResult.SUCCESS}
    if conservative:
        anchor_results.add(TestResult.ERROR)
    successes = {o.fundamental for o in obs if o.result in anchor_results}
    if not successes:
        successes = {o.fundamental for o in obs if o.result is not TestResult.FAILURE}
    failures = {o.fundamental for o in obs if o.result is TestResult.FAILURE}
    observed = {o.fundamental for o in obs}

    feasible = [
        t for t in lattice.instances
        if all(lattice.is_subtype(s, t) for s in successes)
    ]
    if not feasible:
        raise ValueError("lattice has no common supertype")
    ideal = _reference_select(lattice, feasible, failures, observed)
    if checkable is not None:
        enforceable = [t for t in feasible if checkable(t)]
        robust = (
            _reference_select(lattice, enforceable, failures, observed)
            if enforceable else ideal
        )
    else:
        robust = ideal
    crash_free = _crash_count(lattice, robust, failures) == 0
    return robust, ideal, _reference_is_safe(lattice, ideal, obs), crash_free


def _crash_count(lattice, candidate, failures):
    return sum(1 for f in failures if lattice.is_subtype(f, candidate))


def _reference_select(lattice, candidates, failures, observed):
    best_crashes = min(_crash_count(lattice, t, failures) for t in candidates)
    leanest = [
        t for t in candidates if _crash_count(lattice, t, failures) == best_crashes
    ]
    weakest = [
        t for t in leanest
        if not any(t != other and lattice.is_subtype(t, other) for other in leanest)
    ]
    if len(weakest) == 1:
        return weakest[0]

    def coverage(t):
        return sum(1 for f in observed - failures if lattice.is_subtype(f, t))

    weakest.sort(key=lambda t: (-coverage(t), t.render()))
    return weakest[0]


def _reference_is_safe(lattice, candidate, obs):
    for o in obs:
        inside = lattice.is_subtype(o.fundamental, candidate)
        if inside and o.result is TestResult.FAILURE:
            return False
        if not inside and o.result is not TestResult.FAILURE:
            return False
    return True


#: Instances never in a drawn lattice: an unregistered template and a
#: size no pool contains.
_ABSENT = [
    TypeInstance("GHOST", fundamental=True, family="ghost"),
    R.RW_FIXED(30001),
    R.R_ARRAY(30001),
]


@st.composite
def robust_cases(draw):
    sizes = draw(_SIZES)
    family = draw(st.one_of(st.none(), extension_families()))
    with registered(family):
        lattice = Lattice(build_instances(sizes))
    # One argument's generators produce fundamentals of one family
    # (draws across unrelated families rarely share a supertype); a
    # few extra observations of any or absent instances exercise the
    # edges of the definition.
    family_name = draw(st.sampled_from(sorted({t.family for t in lattice.instances})))
    related = [
        t for t in lattice.instances if t.family == family_name and t.fundamental
    ] or lattice.fundamentals()
    results = st.sampled_from(list(TestResult))
    blamed = st.booleans() | st.just(True)
    observations = draw(st.lists(
        st.builds(Observation, st.sampled_from(related), results, blamed),
        min_size=1, max_size=12,
    ))
    observations += draw(st.lists(
        st.builds(Observation, st.sampled_from(lattice.instances + _ABSENT), results, blamed),
        max_size=2,
    ))
    if draw(st.booleans()):
        # No successful return at all: exercises the fallback anchor.
        observations = [
            Observation(o.fundamental, TestResult.ERROR, o.blamed)
            if o.result is TestResult.SUCCESS else o
            for o in observations
        ]
    names = sorted({t.name for t in lattice.instances})
    checkable_names = draw(st.one_of(st.none(), st.sets(st.sampled_from(names))))
    conservative = draw(st.booleans())
    return lattice, observations, checkable_names, conservative


def _case(sizes, observations, checkable_names=None, conservative=False):
    return (
        Lattice(build_instances(sizes)),
        [Observation(t, result) for t, result in observations],
        checkable_names,
        conservative,
    )


S, E, F = TestResult.SUCCESS, TestResult.ERROR, TestResult.FAILURE
#: Rare in random draws: several incomparable weakest candidates whose
#: coverage of the non-crashing fundamentals differs (NULL returns;
#: R_ARRAY_NULL[8] also covers the erroring RONLY_FIXED[8]).
_COVERAGE_TIE = [(R.NULL, S), (R.RONLY_FIXED(8), E), (R.INVALID, F)]


def _outcome(compute):
    try:
        return compute()
    except ValueError:
        return ValueError


@settings(SEEDED, max_examples=400)
@given(robust_cases())
@example(_case({8}, _COVERAGE_TIE))
@example(_case({8}, _COVERAGE_TIE, {"W_ARRAY_NULL", "FUNCPTR_NULL", "CSTRING_NULL"}))
@example(_case({8}, [(R.NULL, S), (_ABSENT[0], E), (R.INVALID, F)]))
@example(_case({8}, [(R.NULL, E), (R.RW_FIXED(8), F), (R.INVALID, E)]))
@example(_case({8}, [(R.NULL, S), (R.RW_FIXED(8), E), (R.INVALID, F)], conservative=True))
def test_mask_selection_matches_set_reference(case):
    lattice, observations, checkable_names, conservative = case
    checkable = (
        None if checkable_names is None
        else (lambda t: t.name in checkable_names)
    )

    def masked():
        result = compute_robust_type(
            observations, lattice=lattice, checkable=checkable, conservative=conservative
        )
        return result.robust, result.ideal, result.safe, result.crash_free

    expected = _outcome(
        lambda: reference_robust_type(observations, lattice, checkable, conservative)
    )
    assert _outcome(masked) == expected
