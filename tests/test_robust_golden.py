"""Per-argument golden for the whole 86-function evaluation set.

Pins, for every argument of every function a cold ``repro harden``
injects, the four outputs of the section-4.3 computation: the
enforced ``robust`` type, the unrestricted ``ideal`` type, whether
``ideal`` is a *safe* argument type, and whether ``robust`` is
crash-free.  Any change to the type lattice or to robust-type
selection that moves one of them fails here, function by function.

Regenerate only when a change is meant to alter these verdicts, and
say so in the change::

    PYTHONPATH=src python tests/test_robust_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "robust_golden.json"


def robust_signature(reports) -> dict[str, list[dict]]:
    """Function name -> one ``robust``/``ideal``/``safe``/``crash_free``
    record per argument."""
    return {
        name: [
            {
                "robust": rt.robust.render(),
                "ideal": rt.ideal.render(),
                "safe": rt.safe,
                "crash_free": rt.crash_free,
            }
            for rt in report.robust_types
        ]
        for name, report in sorted(reports.items())
    }


def _harden_reports():
    from repro.core.pipeline import HealersPipeline

    return HealersPipeline().run().reports


@pytest.fixture(scope="module")
def signature():
    return robust_signature(_harden_reports())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_evaluation_set(golden):
    from repro.libc.catalog import BALLISTA_SET

    assert sorted(golden) == sorted(spec.name for spec in BALLISTA_SET)
    assert len(golden) == 86


def test_every_argument_matches_golden(signature, golden):
    mismatches = {
        name: {"expected": golden.get(name), "actual": arguments}
        for name, arguments in signature.items()
        if golden.get(name) != arguments
    }
    assert sorted(signature) == sorted(golden)
    assert mismatches == {}


def main() -> int:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    signature = robust_signature(_harden_reports())
    GOLDEN_PATH.write_text(json.dumps(signature, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(signature)} functions)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
