"""Shared fixtures: the packaged case-study bundle, the seed-1 inputs of
the benchmark workloads, a synthetic event-history generator, the
Goel-Okumoto gradient oracle, and a bundle-directory writer for tests
that need datasets the fixture does not cover."""

from __future__ import annotations

import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import pytest

from orcas import cli
from orcas.evidence import required_tca_template
from orcas.fixtures import vcu_dir

# The NHPP sampler of the parameter-recovery experiment is the tests' oracle too.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from srgm_recovery_experiment import nhpp_exponential_events  # noqa: E402


ROOT = Path(__file__).resolve().parent.parent
# The bundles whose json reports the seed-1 inputs also hold, saved as <name>.json.
SAVED_REPORTS = ("vcu", "go", "mo-a")


@pytest.fixture
def vcu_bundle_dir() -> Path:
    return vcu_dir()


@pytest.fixture(scope="session")
def workdir(tmp_path_factory) -> Path:
    """The seed-1 inputs of every workload of ``perfbench/gen.py`` in one
    directory, plus the saved json reports of the bundles in SAVED_REPORTS."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.VCU_FIXTURE = ROOT / gen.VCU_FIXTURE
    out = tmp_path_factory.mktemp("outputs")
    for workload in gen.GENERATORS:
        gen.generate(workload, 1, out / workload)
        for entry in (out / workload).iterdir():
            entry.rename(out / entry.name)
    for name in SAVED_REPORTS:
        assert cli.main(["assess", str(out / name), "-o", str(out / f"{name}.json")]) in (0, 2)
    return out


def go_gradient(events: list[float], horizon: float, a: float, b: float) -> tuple[float, float]:
    """The analytic gradient in (a, b) of the Goel-Okumoto log-likelihood
    n ln(a b) - b sum(t_i) - a (1 - exp(-b T)): zero at the fit, an oracle of
    the fitter that reduces the likelihood to one parameter."""
    n = len(events)
    d_a = n / a + math.expm1(-b * horizon)
    d_b = n / b - math.fsum(events) - a * horizon * math.exp(-b * horizon)
    return (d_a, d_b)


def default_tca_entries(status: str = "complete") -> list[dict]:
    return [
        {"level": level.value, "activity": activity, "trigger": trigger.value, "status": status}
        for level, activity, trigger in required_tca_template()
    ]


def write_bundle(
    directory: Path,
    defects: list[dict] | None = None,
    effort: dict | None = None,
    rtm: list[dict] | None = None,
    tca: list[dict] | None = None,
    config: dict | None = None,
    **extra_files: object,
) -> Path:
    """Materialize a bundle directory; defaults form a minimal valid one."""
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "defects.json": defects if defects is not None else [],
        "effort.json": effort if effort is not None else
            {"kind": "continuous", "test_count": 100, "test_duration": 1.0},
        "rtm.json": rtm if rtm is not None else
            [{"req_id": "R-1", "description": "does the thing", "status": "complete"}],
        "tca.json": tca if tca is not None else default_tca_entries(),
        "config.json": config if config is not None else
            {"structural_coverage": 1.0, "system_kind": "control"},
    }
    files.update({name: content for name, content in extra_files.items()})
    for name, content in files.items():
        (directory / name).write_text(json.dumps(content, indent=2), encoding="utf-8")
    return directory


def srgm_bundle(tmp_path: Path, model: str = "goel-okumoto") -> Path:
    """A one-class growth-model bundle of ~200 detections of ``model``."""
    rng = random.Random(17)
    horizon = 300.0
    events = sorted(
        t for _ in range(4) for t in nhpp_exponential_events(50.0, 0.02, horizon, rng))
    defects = [
        {"id": f"D-{i}", "description": "synthetic", "class": "checking",
         "detection_effort": t}
        for i, t in enumerate(events)
    ]
    return write_bundle(
        tmp_path / "srgm",
        defects=defects,
        effort={"kind": "continuous", "test_count": 300, "test_duration": 1.0},
        config={
            "structural_coverage": 1.0,
            "system_kind": "control",
            "rate_method": "srgm",
            "srgm_model": model,
            "stability_windows": 3,
        },
    )
