"""Peak memory of the readers.

A reader must not keep an input's bytes beside its text, nor (for the CSV
converter) a wider copy of the text. The peaks are measured with
tracemalloc on the seed-1 inputs of the benchmark workloads. A whole-text
reader (the report's, the CSV converter's) holds its input's text while it
parses it and the parsed objects after, and is bounded by the peak of the
same parse of the text alone plus half the file's size: a second copy of
the input would exceed it. The record file readers hold less, a 64 KiB
block of the text and its records at a time beside the columns they keep,
whatever the file's layout and line ends. They check ids that are not kept
as they arrive, holding only the last where the ids increase, and otherwise
sort them at the end of the file, never in a set. A bundle load holds well
under half its defect file's size: it keeps only the columns its stages
read, and no defect id. A JSON report is written piece by piece, each piece
passed to the sink as soon as it is encoded, never held whole.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import shutil
import sys
import tracemalloc

import pytest

from orcas import cli
from orcas.bundle import defects_from_csv, load_bundle, load_corpus_file, load_defects_file, load_rtm_file
from orcas.report import run_assessment, write_json

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
# text and records beside the columns it keeps, and of ids that increase only the last: 0.39
# times the defect file for mo-a and its copy with lone-CR line ends, 0.45 times for its minified
# copy, whose blocks hold more records, and 0.40 times for corpus-bundle, whose corpus is read
# beside the defects' columns (Python 3.10 to 3.13). The bound leaves a margin of 0.05 over the
# highest. Holding the ids, as a sorted check of them does, lifts mo-a to 0.73.
LOAD_PEAK = 0.5
# A copy of mo-a with its defects shuffled: its ids, kept packed one string a piece, are sorted
# at the end. It measures 0.63 to 0.67 times its defect file, under the 0.73 of every ordered
# load that held its ids.
SHUFFLED_LOAD_PEAK = 0.73


def copy_of_mo_a(workdir, tmp_path, layout):
    """A copy of the seed-1 mo-a bundle whose defects.json is rewritten by ``layout``."""
    directory = shutil.copytree(workdir / "mo-a", tmp_path / "mo-a")
    path = directory / "defects.json"
    path.write_bytes(layout(path.read_bytes()))
    return directory


def shuffled(raw: bytes) -> bytes:
    defects = json.loads(raw)
    random.Random(1).shuffle(defects)
    return json.dumps(defects, indent=1).encode("utf-8")


LAYOUTS = {
    "minified": lambda raw: json.dumps(json.loads(raw), separators=(",", ":"), ensure_ascii=False).encode("utf-8"),
    "lone-CR": lambda raw: raw.replace(b"\n", b"\r"),
}


@pytest.mark.parametrize("name", ["mo-a", "corpus-bundle", *LAYOUTS])
def test_a_bundle_load_never_holds_a_whole_record_file(workdir, tmp_path, name):
    directory = copy_of_mo_a(workdir, tmp_path, LAYOUTS[name]) if name in LAYOUTS else workdir / name
    peak, _ = peak_and_kept(lambda: load_bundle(directory))
    assert peak < LOAD_PEAK * (directory / "defects.json").stat().st_size


def test_a_bundle_with_unordered_ids_loads_under_the_held_id_peak(workdir, tmp_path):
    directory = copy_of_mo_a(workdir, tmp_path, shuffled)
    peak, _ = peak_and_kept(lambda: load_bundle(directory))
    assert peak < SHUFFLED_LOAD_PEAK * (directory / "defects.json").stat().st_size


# The bound on the peak of writing a JSON report, as a fraction of its size: the writer holds one
# piece, text and bytes, at most the reprs of a slice of a float list. On the seed-1 mo-a report
# (0.68 MiB) it measures 0.15; canonical_json_bytes, which returns the whole bytes, measures 3.0.
STREAM_PEAK = 0.5


def test_a_streamed_report_is_never_held_whole(workdir):
    report = run_assessment(load_bundle(workdir / "mo-a"))
    size = (workdir / "mo-a.json").stat().st_size
    peak, _ = peak_and_kept(lambda: write_json(report, lambda piece: None))
    assert peak < STREAM_PEAK * size


def test_a_bundle_keeps_less_than_its_defect_file_alone(workdir):
    # The file reader keeps every field; the bundle drops the descriptions and resolutions of its
    # defects and requirements, which outweigh its RTM, TCA and matrix.
    _, bundle = peak_and_kept(lambda: load_bundle(workdir / "corpus-bundle"))
    _, defects = peak_and_kept(lambda: load_defects_file(workdir / "corpus-bundle" / "defects.json"))
    assert bundle < defects


def test_report_reads_one_copy_of_the_saved_report(workdir, monkeypatch, tmp_path):
    # The read of `orcas report`, up to the report dict it emits.
    monkeypatch.setattr(cli, "emit_report", lambda report, format, write: None)
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
