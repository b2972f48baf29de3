"""Byte-identity of the command-line outputs.

The seed-1 inputs of the three benchmark workloads are generated with
``perfbench/gen.py``; each command below runs through ``cli.main`` in
process, and the SHA-256 of its (exit code, stdout, stderr) must equal
the committed digest. A change that moves a digest updates the table and
says which commands moved, which digits, and why.

The same inputs pin the column path: ``validate`` and ``assess`` read the
columns the loaders checked and build no row, and iterating the loaders'
records gives the rows of the loader oracles.
"""

from __future__ import annotations

import hashlib
from functools import partial

import pytest

from orcas import cli
from orcas.bundle import load_corpus_file, load_defects_file
from orcas.domain import DefectRecord
from orcas.evidence import RtmEntry, TcaEntry

from conftest import SAVED_REPORTS
from test_bundle_fuzz import _oracle_load_corpus_file, _oracle_load_defect_file

_ASSESSED = ("vcu", "go", "mo-a", "mo-b", "corpus-bundle",
             "bad-empty-id", "bad-rtm-utf8", "bad-test-count", "bad-srgm-no-effort")
_FIT = ("--stability-windows", "4", "--curve-samples", "10")

# Each command, as its arguments, run from the directory the inputs were generated in.
COMMANDS = (
    *((cmd, name, *fmt) for name in _ASSESSED
      for cmd, *fmt in (("validate",), ("assess", "--format", "json"), ("assess", "--format", "text"),
                        ("assess", "--format", "svg"))),
    ("assess", "vcu", "--uniform-missing-rows", "--exclude-modes", "B,C"),
    ("assess", "vcu", "--uniform-missing-rows", "--exclude-modes", "B,C", "--format", "text"),
    *(("report", f"{name}.json", "--format", fmt) for name in SAVED_REPORTS for fmt in ("json", "text", "svg")),
    *(("srgm", "fit", "history.json", "--model", model, *extra) for model in ("go", "mo") for extra in ((), _FIT)),
    ("causality", "build", "corpus.json"),
    ("causality", "build", "corpus-bundle/corpus.json"),
    ("convert", "defects", "log.csv"),
)

DIGESTS = {
    "validate vcu": "3ddff260720e9580de19013fc7c0c7b40f04f4bbc497ef3805053e0ca495fbd7",
    "assess vcu --format json": "8f2a96e890857cbc23bdd0dae401082c12220530e89144f1711ffe2617764c06",
    "assess vcu --format text": "1a7ea095240e20ecd8002f5f4693aefb7c04a7bfe7459159bace0d0ac4e4f04d",
    "assess vcu --format svg": "c618341ef93ab84f0863f9cdabe5342062fdc994c23cfa8108f00f042d884cc2",
    "validate go": "0d387abd1537a836ac1152e7ab8624abf90f1edb94fec210b253b790eee0a3df",
    "assess go --format json": "5f96bd9cc6f1d93ccc91656441935a2314545a4b35c56156ce6cf9c10538c9b9",
    "assess go --format text": "b2eb0a3ba524717d5e13faa43d07c54b7aebf3e0b50aa1c97e6036e0eb5c1247",
    "assess go --format svg": "5fd5d21475f3ffcbac4da4df7e28bdc1e25a3b093e020f359c406a0557a00897",
    "validate mo-a": "afec9339788df9c5671cdc9f5f892c9216707cf521ae9f6db712678a5b209aab",
    "assess mo-a --format json": "68ec5e55e0972ab54c32cbf60b5f30b0af8021bfbca149fabf1f315439a44898",
    "assess mo-a --format text": "3f8a0377af0012494381a761891000fa49794f45e81d4bc63318630c29fd53af",
    "assess mo-a --format svg": "dd51f3e1a00d07cbeb19bf938d76238b0a387b0991af76e06168bbb048030fe0",
    "validate mo-b": "0322981f68c1e5084aac7d2b94adc4f6627655a90b8090a59153d7a40ab57ea0",
    "assess mo-b --format json": "2d25b3bde59e98c37390f8a24afa77fe8c2456c2fdc4b5372ae369bebaf8bc28",
    "assess mo-b --format text": "2e85a0a8861e01d821a1fc061cc4435d350f17b84f0b0aec5f94ceb3d88f1f0d",
    "assess mo-b --format svg": "97d707d2641c1703e084a8a31bf8b27a99e8d40ad31c1780353a4c8e2f8216d6",
    "validate corpus-bundle": "ac9a9d666086db0b41959da0cddfde17c42372e1656c7a75db744410029b8265",
    "assess corpus-bundle --format json": "0aaaf31911f2eab72035acb1d089aa77c4abc31fc1ac5c3e945dc470a20e9ca8",
    "assess corpus-bundle --format text": "552944d8d151e8a50d465c4386f4f7303c68de4a66d020e0d51e88abe51247eb",
    "assess corpus-bundle --format svg": "e41c97653a8ed8a7e70b60a1612a167f4ee12c84b8a0c8330703745778519d69",
    "validate bad-empty-id": "57829298eee3cd9385e273527f2c6dd5f17549d4beca2b1a7d9c9a3d45b76fbd",
    "assess bad-empty-id --format json": "57829298eee3cd9385e273527f2c6dd5f17549d4beca2b1a7d9c9a3d45b76fbd",
    "assess bad-empty-id --format text": "57829298eee3cd9385e273527f2c6dd5f17549d4beca2b1a7d9c9a3d45b76fbd",
    "assess bad-empty-id --format svg": "57829298eee3cd9385e273527f2c6dd5f17549d4beca2b1a7d9c9a3d45b76fbd",
    "validate bad-rtm-utf8": "50cb3c2e69379eee6215f401d461457701bda4255a1cc220a6c30442e88b434e",
    "assess bad-rtm-utf8 --format json": "50cb3c2e69379eee6215f401d461457701bda4255a1cc220a6c30442e88b434e",
    "assess bad-rtm-utf8 --format text": "50cb3c2e69379eee6215f401d461457701bda4255a1cc220a6c30442e88b434e",
    "assess bad-rtm-utf8 --format svg": "50cb3c2e69379eee6215f401d461457701bda4255a1cc220a6c30442e88b434e",
    "validate bad-test-count": "cb1fe9a9ed0f2600045b5a2c67e689d0327e585bf8474476b1d14e4edcc5080f",
    "assess bad-test-count --format json": "cb1fe9a9ed0f2600045b5a2c67e689d0327e585bf8474476b1d14e4edcc5080f",
    "assess bad-test-count --format text": "cb1fe9a9ed0f2600045b5a2c67e689d0327e585bf8474476b1d14e4edcc5080f",
    "assess bad-test-count --format svg": "cb1fe9a9ed0f2600045b5a2c67e689d0327e585bf8474476b1d14e4edcc5080f",
    "validate bad-srgm-no-effort": "1bb81b8f07b391670d1dad35be17f1cbf224c92e4ecf7b1569cafdeb9cf57554",
    "assess bad-srgm-no-effort --format json": "1bb81b8f07b391670d1dad35be17f1cbf224c92e4ecf7b1569cafdeb9cf57554",
    "assess bad-srgm-no-effort --format text": "1bb81b8f07b391670d1dad35be17f1cbf224c92e4ecf7b1569cafdeb9cf57554",
    "assess bad-srgm-no-effort --format svg": "1bb81b8f07b391670d1dad35be17f1cbf224c92e4ecf7b1569cafdeb9cf57554",
    "assess vcu --uniform-missing-rows --exclude-modes B,C":
        "0de72ecfacb4b1a462b8931c68eaa0833ef8a7618f4492b111efbe53db7d9265",
    "assess vcu --uniform-missing-rows --exclude-modes B,C --format text":
        "4ddd00d8f12c55194ddfe586d127c4d8ae30fa721ef51c2fca3fc01c5cda8c9a",
    "report vcu.json --format json": "396f5932dc9092e3f092a99b77ce22ae56a11e6dfcc0bdc5580e45e0e29ad42a",
    "report vcu.json --format text": "61969456d4558d07ab50d9492d3bf6d0dcb87d1d7c7592b871cfd880e59931dc",
    "report vcu.json --format svg": "e41c97653a8ed8a7e70b60a1612a167f4ee12c84b8a0c8330703745778519d69",
    "report go.json --format json": "5f96bd9cc6f1d93ccc91656441935a2314545a4b35c56156ce6cf9c10538c9b9",
    "report go.json --format text": "b2eb0a3ba524717d5e13faa43d07c54b7aebf3e0b50aa1c97e6036e0eb5c1247",
    "report go.json --format svg": "5fd5d21475f3ffcbac4da4df7e28bdc1e25a3b093e020f359c406a0557a00897",
    "report mo-a.json --format json": "68ec5e55e0972ab54c32cbf60b5f30b0af8021bfbca149fabf1f315439a44898",
    "report mo-a.json --format text": "3f8a0377af0012494381a761891000fa49794f45e81d4bc63318630c29fd53af",
    "report mo-a.json --format svg": "dd51f3e1a00d07cbeb19bf938d76238b0a387b0991af76e06168bbb048030fe0",
    "srgm fit history.json --model go": "f6f8da2f8d127ef0b511718e4e2e5afd1a337cde429188bc68205688f55db8e2",
    "srgm fit history.json --model go --stability-windows 4 --curve-samples 10":
        "37667779b7798716a3d137c05e0befebc94fe9122b498c753922f2da7b678c3b",
    "srgm fit history.json --model mo": "b9a7be725a513cc593d571c5351d931bc083f60e4ba27c1b58ee7f3bab87dac5",
    "srgm fit history.json --model mo --stability-windows 4 --curve-samples 10":
        "9436544a9d20e7b36fc24e871c30add3c469bfc18b2e8bbd56582ee8aa674630",
    "causality build corpus.json": "f0ac6e9b8cb062a3d600792b6d806cd274926ac4eda510e0396673f14da1b531",
    "causality build corpus-bundle/corpus.json": "9b9842ddaa448d5881534a3314607298073c2de3e91377bdb23ec226a19b7ac9",
    "convert defects log.csv": "e9516ae3ecbf67a5dd3a3166a957695898f6bd246e2a68e17e20003c0ed4cde6",
}


def _digest(argv, capsysbinary) -> str:
    code = cli.main(list(argv))
    out, err = capsysbinary.readouterr()
    return hashlib.sha256(repr((code, out, err)).encode()).hexdigest()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_digest(argv, workdir, monkeypatch, capsysbinary):
    monkeypatch.chdir(workdir)
    assert _digest(argv, capsysbinary) == DIGESTS[" ".join(argv)]


def test_validate_and_assess_build_no_rows(workdir, monkeypatch, capsysbinary):
    def no_rows(*args, **kwargs):
        raise AssertionError("a record row was built")

    for row in (DefectRecord, RtmEntry, TcaEntry):
        monkeypatch.setattr(row, "_make", no_rows)
        monkeypatch.setattr(row, "__new__", no_rows)
    monkeypatch.chdir(workdir)
    commands = [argv for argv in COMMANDS
                if argv[0] in ("validate", "assess") and argv[1] in ("corpus-bundle", "mo-a")]
    assert len(commands) == 8
    for argv in commands:
        assert _digest(argv, capsysbinary) == DIGESTS[" ".join(argv)], argv


def test_loaded_records_iterate_to_the_oracle_rows(workdir):
    defects = partial(_oracle_load_defect_file, require_modes=False)
    for load, oracle, path in ((load_defects_file, defects, "corpus-bundle/defects.json"),
                               (load_defects_file, defects, "mo-a/defects.json"),
                               (load_corpus_file, _oracle_load_corpus_file, "corpus-bundle/corpus.json")):
        assert tuple(load(workdir / path)) == oracle(workdir / path)
