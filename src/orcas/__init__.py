"""orcas: software failure-mode probability assessment.

Turns classified defect records, testing-effort logs, and coverage
evidence into per-failure-mode probabilities, growth-model predictions
with stability diagnostics, and a confidence score that gates whether
the assessment can stand on its own.
"""

from ._version import __version__
from .bundle import load_bundle
from .report import emit_report, run_assessment

# The API README.md documents; every other name is imported from its module.
__all__ = ["load_bundle", "run_assessment", "emit_report"]
