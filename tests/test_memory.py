"""Peak memory of the readers.

A reader must not keep an input's bytes beside its text, nor (for the CSV
converter) a wider copy of the text. The peaks are measured with
tracemalloc on the seed-1 inputs of the benchmark workloads. A whole-text
reader (the report's, the CSV converter's) holds its input's text while it
parses it and the parsed objects after, and is bounded by the peak of the
same parse of the text alone plus half the file's size: a second copy of
the input would exceed it. The record file readers hold less, a 64 KiB
block of the text and its records at a time beside the columns they keep,
and check that ids are distinct on a sorted copy of the id column, not a
set of it. A bundle load holds less than its defect file's size: it keeps
only the columns its stages read, and no defect id.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc

import pytest

from orcas import cli
from orcas.bundle import defects_from_csv, load_bundle, load_corpus_file, load_defects_file, load_rtm_file

# The excess over the parse of the text alone a reader may hold, as a fraction of its file's size.
EXCESS = 0.5


def peak_and_kept(call) -> tuple[int, int]:
    """The tracemalloc peak during ``call()`` and the memory its result keeps, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
        del result
        return peak, kept
    finally:
        tracemalloc.stop()


def parse_peak(path) -> int:
    """The peak of ``json.loads`` on the text of ``path``, with the text itself."""
    text = path.read_text(encoding="utf-8")
    return sys.getsizeof(text) + peak_and_kept(lambda: json.loads(text))[0]


@pytest.mark.parametrize("load, name", [(load_defects_file, "mo-a/defects.json"),
                                        (load_corpus_file, "corpus-bundle/corpus.json"),
                                        (load_rtm_file, "corpus-bundle/rtm.json")],
                         ids=["defects", "corpus", "rtm"])
def test_a_loader_holds_one_copy_of_its_input(workdir, load, name):
    path = workdir / name
    peak, _ = peak_and_kept(lambda: load(path))
    assert peak - parse_peak(path) < EXCESS * path.stat().st_size


# The bound on a bundle load's peak, as a multiple of its defect file's size. A load that holds
# a whole record file's text (once its size) exceeds it alone. The block reader holds a block's
# text and records, and a sorted copy of the ids, beside the columns it keeps: about 0.73 times
# the defect file for mo-a and 0.87 times for corpus-bundle, whose corpus is read beside the
# defects' columns. Checking the ids with a set of them instead lifts these to 1.24 and 1.35.
LOAD_PEAK = 1.0


@pytest.mark.parametrize("name", ["mo-a", "corpus-bundle"])
def test_a_bundle_load_never_holds_a_whole_record_file(workdir, name):
    peak, _ = peak_and_kept(lambda: load_bundle(workdir / name))
    assert peak < LOAD_PEAK * (workdir / name / "defects.json").stat().st_size


def test_a_bundle_keeps_less_than_its_defect_file_alone(workdir):
    # The file reader keeps every field; the bundle drops the descriptions and resolutions of its
    # defects and requirements, which outweigh its RTM, TCA and matrix.
    _, bundle = peak_and_kept(lambda: load_bundle(workdir / "corpus-bundle"))
    _, defects = peak_and_kept(lambda: load_defects_file(workdir / "corpus-bundle" / "defects.json"))
    assert bundle < defects


def test_report_reads_one_copy_of_the_saved_report(workdir, monkeypatch, tmp_path):
    # The read of `orcas report`, up to the report dict it emits.
    monkeypatch.setattr(cli, "emit_report", lambda report, format: b"")
    path = workdir / "mo-a.json"
    args = argparse.Namespace(assessment=str(path), format="json", output=str(tmp_path / "out"))
    peak, _ = peak_and_kept(lambda: cli._cmd_report(args))
    assert peak - parse_peak(path) < EXCESS * path.stat().st_size


def test_convert_defects_holds_one_copy_of_the_csv(tmp_path):
    # Descriptions of 2,000 characters: the text outweighs the per-record objects.
    path = tmp_path / "log.csv"
    path.write_text("id,class,detection_effort,description\n"
                    + "".join(f'D-{i},checking,{i + 1},"{"x" * 2000}"\n' for i in range(500)),
                    encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    # Beside the records it returns, the converter holds the text and less than EXCESS more.
    peak, kept = peak_and_kept(lambda: defects_from_csv(path))
    assert peak - kept - sys.getsizeof(text) < EXCESS * path.stat().st_size
