"""The demo corpus and its writer: what ``write_dataset`` writes,
``load_records`` and ``load_page`` read back equal, and the README's demo
dataset stays byte for byte what it was."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings

import make_demo_dataset
from conftest import dataset_st, mkpage, mkreg, mktok
from demo_corpus import write_dataset
from proctag.ingest import Dataset, InstructionRecord, IoFailure, load_page, load_records


def _read_back(path) -> Dataset:
    """The dataset at ``path`` as the commands read it: the records, then
    each page they reference from its page file."""
    records, page_files = load_records(path)
    return Dataset(records=records,
                   pages={page_id: load_page(page_path, page_id)
                          for page_id, page_path in page_files.items()})


class TestWriteDataset:
    def test_round_trip_small(self, tmp_path):
        ds = Dataset(
            records=[InstructionRecord("r1", "p1", "What total?", ["12", "12.0"])],
            pages={"p1": mkpage("p1", tokens=[mktok("total", 5, 5, 55, 20)],
                                regions=[mkreg("table", 0, 0, 300, 200, score=0.5)])})
        write_dataset(ds, tmp_path / "records.jsonl")
        assert _read_back(tmp_path / "records.jsonl") == ds

    def test_annotations_preserved(self, tmp_path):
        ann = {"process": {"steps": [{"fn": "find_table"}], "attempts": 2},
               "tags": {"raw": ["find_table"]}}
        ds = Dataset(records=[InstructionRecord("r1", "p1", "q", ["a"], annotations=ann)],
                     pages={"p1": mkpage("p1")})
        write_dataset(ds, tmp_path / "records.jsonl")
        reloaded = _read_back(tmp_path / "records.jsonl")
        assert reloaded.records[0].annotations == ann

    def test_unwritable_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a dir", encoding="utf-8")
        ds = Dataset(records=[], pages={})
        with pytest.raises(IoFailure):
            write_dataset(ds, blocker / "sub" / "records.jsonl")

    def test_hostile_page_id_rejected(self, tmp_path):
        for page_id in ("../escape", "p1\n"):
            ds = Dataset(records=[], pages={page_id: mkpage(page_id)})
            with pytest.raises(IoFailure, match="filesystem-safe"):
                write_dataset(ds, tmp_path / "records.jsonl")

    @settings(max_examples=40, deadline=None)
    @given(ds=dataset_st())
    def test_round_trip_property(self, tmp_path_factory, ds):
        root = tmp_path_factory.mktemp("roundtrip")
        write_dataset(ds, root / "records.jsonl")
        assert _read_back(root / "records.jsonl") == ds


# `find . -type f | sort | xargs sha256sum | sha256sum` in the directory that
# `make_demo_dataset.py --pages 20` writes (seed 7, 5 records per page)
DEMO_DIGEST = "297959e01307dcfe4a7ad6ac2d0a9e267231582c083921764200d583863871fa"


def test_demo_dataset_is_pinned(tmp_path, capsys):
    make_demo_dataset.main(["--pages", "20", "--out", str(tmp_path)])
    assert capsys.readouterr().out == f"wrote 100 records over 20 pages to {tmp_path}/\n"
    names = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    listing = "".join(f"{hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}  ./{name}\n"
                      for name in names)
    assert hashlib.sha256(listing.encode("utf-8")).hexdigest() == DEMO_DIGEST
