#!/usr/bin/env python3
"""Run the full assessment on the bundled smart-sensor case study and
print the text report; optionally save the canonical JSON next to it.

Usage: python scripts/run_case_study.py [output.json]
"""

import sys
from pathlib import Path

from orcas import emit_report, load_bundle, run_assessment
from orcas.fixtures import vcu_dir


def main() -> int:
    bundle = load_bundle(vcu_dir())
    report = run_assessment(bundle)
    sys.stdout.write(emit_report(report, "text").decode("utf-8"))
    if len(sys.argv) > 1:
        out = Path(sys.argv[1])
        out.write_bytes(emit_report(report, "json"))
        print(f"wrote {out}")
    return 0 if report["evidence"]["gate"] == "proceed" else 2


if __name__ == "__main__":
    sys.exit(main())
