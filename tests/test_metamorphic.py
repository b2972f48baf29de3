"""Whole-pipeline metamorphic properties: a bundle transformed in a way the
assessment must not see gives the report the transform predicts.

Record order. Shuffling the records of ``defects.json``, ``rtm.json``,
``tca.json`` and ``corpus.json`` changes the files' digests
(``provenance.inputs``) and nothing else but the order of the ``gaps``
lists, which follow file order by design: an assessor reads the gaps in the
order the evidence files give them. Every other section must keep its
canonical bytes.
"""

from __future__ import annotations

import json
import random
import shutil
from collections import Counter

import pytest

from orcas.bundle import load_bundle
from orcas.fixtures import vcu_dir
from orcas.report import canonical_json_bytes, run_assessment

SHUFFLED_FILES = ("defects.json", "rtm.json", "tca.json", "corpus.json")
SHUFFLES = 3


def shuffled_copy(source, target, rng: random.Random) -> bool:
    """Copy the bundle ``source`` to ``target`` with the records of each of
    SHUFFLED_FILES it holds in an order drawn from ``rng``: whether any
    file's order moved."""
    shutil.copytree(source, target)
    moved = False
    for name in SHUFFLED_FILES:
        path = target / name
        if path.exists():
            records = json.loads(path.read_text(encoding="utf-8"))
            order = list(records)
            rng.shuffle(records)
            moved |= records != order
            path.write_text(json.dumps(records, indent=1, ensure_ascii=False), encoding="utf-8")
    return moved


def order_free(report: dict) -> tuple[dict, dict]:
    """The canonical bytes of each report section but ``gaps``, with
    ``provenance`` less its ``inputs``, and each ``gaps`` list as a multiset."""
    sections = {key: value for key, value in report.items() if key != "gaps"}
    sections["provenance"] = {key: value for key, value in report["provenance"].items() if key != "inputs"}
    return ({key: canonical_json_bytes(value) for key, value in sections.items()},
            {key: Counter(names) for key, names in report["gaps"].items()})


@pytest.mark.parametrize("name", ["vcu", "go", "mo-a", "corpus-bundle"])
def test_record_order_moves_only_the_digests_and_the_order_of_the_gaps(workdir, tmp_path, name):
    source = vcu_dir() if name == "vcu" else workdir / name
    expected = run_assessment(load_bundle(source))
    rng = random.Random(30)
    for k in range(SHUFFLES):
        copy = tmp_path / str(k) / name
        assert shuffled_copy(source, copy, rng)
        report = run_assessment(load_bundle(copy))
        assert order_free(report) == order_free(expected)
        assert report["provenance"]["inputs"] != expected["provenance"]["inputs"]
