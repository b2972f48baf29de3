"""Robustness properties of the commands: a mutated input is either run or
refused in one error line that names its file, never a traceback.

``orcas causality build`` reads one ``corpus.json``. The corpus loader is
the one home of its rules (records nonempty, ids distinct, every record
labeling a mode), so each refused mutation must be refused there, and each
accepted one must give a matrix whose rows are probability vectors.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orcas import cli
from orcas.causality import ROW_SUM_TOLERANCE
from orcas.domain import DefectClass, FailureMode

from test_report import JSON_VALUES, json_type

# Each one-field mutation of a corpus record, and whether the loader accepts it.
MUTATIONS = {"no modes": False, "empty modes": False, "bad class": False, "duplicate id": False,
             "wrong type": False, "relabel": True}


@pytest.fixture(scope="module")
def corpus_dir(workdir, tmp_path_factory):
    """A directory for the mutated corpus, and the cli-small corpus it mutates."""
    return tmp_path_factory.mktemp("corpus"), json.loads((workdir / "corpus.json").read_text(encoding="utf-8"))


@st.composite
def mutated_corpus(draw, records):
    records = copy.deepcopy(records)
    at = draw(st.integers(0, len(records) - 1))
    record, mutation = records[at], draw(st.sampled_from(sorted(MUTATIONS)))
    if mutation == "no modes":
        del record["observed_modes"]
    elif mutation == "empty modes":
        record["observed_modes"] = []
    elif mutation == "bad class":
        record["class"] = draw(st.sampled_from(["", "Timing", "bogus"]))
    elif mutation == "duplicate id":
        record["id"] = records[draw(st.integers(0, len(records) - 1).filter(at.__ne__))]["id"]
    elif mutation == "wrong type":
        key = draw(st.sampled_from(sorted(record)))
        record[key] = draw(st.sampled_from([v for v in JSON_VALUES if json_type(v) is not json_type(record[key])]))
    else:
        record["class"] = draw(st.sampled_from(sorted(DefectClass)))
        record["observed_modes"] = sorted(draw(st.frozensets(st.sampled_from(sorted(FailureMode)), min_size=1)))
    return records, MUTATIONS[mutation]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_causality_build_runs_or_refuses_a_mutated_corpus_in_one_line(corpus_dir, data):
    directory, records = corpus_dir
    corpus, accepted = data.draw(mutated_corpus(records))
    path = directory / "corpus.json"
    path.write_text(json.dumps(corpus, indent=1), encoding="utf-8")
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["causality", "build", str(path)])
    stdout, stderr = out.buffer.getvalue(), err.getvalue()
    if not accepted:
        assert code == 1 and stdout == b""
        assert stderr.startswith("orcas: error: corpus.json: ") and stderr.count("\n") == 1 and stderr.endswith("\n")
        return
    assert (code, stderr) == (0, "")
    rows = json.loads(stdout)["rows"]
    assert rows
    for row in rows.values():
        assert abs(math.fsum(row) - 1.0) <= ROW_SUM_TOLERANCE
