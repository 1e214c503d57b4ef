"""CI entry point: prove every variant in the matrix, or fail.

``python -m repro.analysis.semantics`` folds the engine's template for
every key in ``legal_variant_keys()`` with the production specializer
and runs the full translation-validation obligations against each.
Output is one PROVEN/FAILED line per key; exit status 1 on any
failure, with each difference and its source-to-sink trace printed.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, TextIO, Tuple


def main(argv: Optional[Sequence[str]] = None,
         out: TextIO = sys.stdout) -> int:
    import inspect

    from repro.analysis.semantics.validate import (
        validate_template_source,
    )
    from repro.analysis.source import SourceFile
    from repro.engine import driver

    path = inspect.getsourcefile(driver)
    src = SourceFile.read(path)
    failures: Dict[Tuple, List] = {}
    for key, diff in validate_template_source(src.tree, src.lines):
        failures.setdefault(key, []).append(diff)
    keys = driver.legal_variant_keys()
    proven = 0
    for key in keys:
        label = driver.variant_id(key)
        ok = key not in failures
        verdict = "PROVEN" if ok else "FAILED"
        proven += ok
        print(f"{verdict:7s} {label:18s} {key}", file=out)
    print(
        f"{proven}/{len(keys)} variant keys proven equivalent to the "
        "template",
        file=out,
    )
    if not failures:
        return 0
    for key in sorted(failures, key=str):
        label = driver.variant_id(key)
        print(f"\n== {label} {key}", file=out)
        for diff in failures[key]:
            print(f"  [{diff.kind}] {diff.message}", file=out)
            for step in diff.trace:
                print(
                    f"    line {step['line']}: {step['note']}"
                    + (f"  | {step['text']}" if step.get("text") else ""),
                    file=out,
                )
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
