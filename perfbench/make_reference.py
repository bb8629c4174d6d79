"""Regenerate the golden reference the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Runs the exhaustive 86-function harden, writes its automated
declarations to ``reference/declarations.xml`` (the bundle the
``phase2`` workload loads), then runs one ``phase2`` pass over that
bundle and records, in ``reference/golden.json``:

* per function: robust types, safe/unsafe and errno class;
* per Figure-6 configuration: every test's status in canonical
  enumeration order, the status counts and the crashing functions;
* per Table-2 application: wrapped calls, rejections and a digest of
  every call's return value and errno.

Only regenerate when a change is meant to alter these outputs, and say
so in the change: the benchmark's ``error_rate`` is measured against
this file.
"""

from __future__ import annotations

import json
import sys

import iteration


def main() -> int:
    sys.path.insert(0, str(iteration.ROOT / "src"))
    from repro.core.cache import save_declarations
    from repro.core.pipeline import HealersPipeline

    hardened = HealersPipeline().run()
    iteration.REFERENCE_DIR.mkdir(exist_ok=True)
    save_declarations(
        hardened.declarations, iteration.REFERENCE_DIR / "declarations.xml"
    )
    functions = {
        name: iteration.report_signature(report)
        for name, report in hardened.reports.items()
    }

    phase2 = iteration.Phase2()
    phase2.setup(seed=0, iteration=0)
    outputs = phase2.run()
    ballista = {
        configuration: {
            "statuses": statuses,
            "counts": {
                name: statuses.count(code)
                for name, code in iteration.STATUS_CODE.items()
            },
            "crashing_functions": outputs["crashing_functions"][configuration],
        }
        for configuration, statuses in outputs["ballista"].items()
    }
    golden = {
        "functions": functions,
        "ballista": ballista,
        "apps": outputs["apps"],
    }
    path = iteration.REFERENCE_DIR / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} and declarations.xml", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
