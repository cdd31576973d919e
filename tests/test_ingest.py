from __future__ import annotations

import errno
import hashlib
import json
import logging
import math
import os
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (PAGE_H, PAGE_W, mkbox, mkpage, mkreg, mktok, nested_annotations,
                      run_together)
from demo_corpus import _page_to_dict, write_page
from oracles import clamp_page_reference, page_from_dict_passes
from proctag.ingest import (MAX_NESTING, IoFailure, MalformedLine, MissingPage,
                            _page_from_dict, atomic_write_text, load_dataset, load_page,
                            load_records, read_records)


def _write_min_dataset(tmp_path, lines):
    records = tmp_path / "records.jsonl"
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pages = tmp_path / "pages"
    pages.mkdir(exist_ok=True)
    page = mkpage("p1", tokens=[mktok("hello", 10, 10, 60, 25)])
    write_page(page, pages / "p1.json")
    return records


def _line(record_id, page_id="p1", question="What is shown?"):
    return json.dumps({"record_id": record_id, "page_id": page_id,
                       "question": question, "answers": ["x"]})


_LONE = "holds the lone surrogate %s, which UTF-8 cannot encode"


# JSON values a page file may hold: mostly a page object in which a field
# may be missing or of the wrong type, in any item and in several at once
_json_value = st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
_number = st.integers(-3, 3) | st.floats()


def _mostly(value: st.SearchStrategy, other: st.SearchStrategy = _json_value,
            ) -> st.SearchStrategy:
    """``value`` nine times in ten, ``other`` otherwise."""
    return st.integers(0, 9).flatmap(lambda k: value if k else other)


@st.composite
def _object(draw, fields: dict[str, st.SearchStrategy]) -> dict:
    """An object of the given fields, of which one in ten lacks one."""
    missing = draw(st.sampled_from(list(fields))) if draw(st.integers(0, 9)) == 0 else None
    return {name: draw(_mostly(value)) for name, value in fields.items() if name != missing}


def _items(name: str, score: str, max_size: int) -> st.SearchStrategy:
    bbox = _mostly(st.lists(_number, min_size=4, max_size=4),
                   st.lists(_json_value, min_size=3, max_size=5))
    item = _object({name: st.text(max_size=3), "bbox": bbox, score: st.none() | _number})
    return st.lists(_mostly(item), max_size=max_size)


def _page_values() -> st.SearchStrategy:
    return _mostly(_object({"page_id": st.text(max_size=3), "width": _number,
                            "height": _number, "tokens": _items("text", "confidence", 4),
                            "regions": _items("kind", "score", 3),
                            "image_ref": st.none() | st.text(max_size=3),
                            "meta": st.dictionaries(st.text(max_size=2), _json_value,
                                                    max_size=2)}))


class TestLoadDataset:
    def test_three_valid_lines_order_preserved(self, tmp_path):
        path = _write_min_dataset(tmp_path, [_line("r1"), _line("r2"), _line("r3")])
        ds = load_dataset(path)
        assert [r.record_id for r in ds.records] == ["r1", "r2", "r3"]
        assert set(ds.pages) == {"p1"}

    def test_empty_file(self, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text("", encoding="utf-8")
        ds = load_dataset(records)
        assert ds.records == [] and ds.pages == {}

    def test_truncated_line_reports_line_number(self, tmp_path):
        path = _write_min_dataset(tmp_path, [_line("r1"), '{"record_id": "r2", "page'])
        with pytest.raises(MalformedLine) as exc:
            load_dataset(path)
        assert exc.value.line_no == 2

    def test_repeated_record_id_rejected(self, tmp_path):
        path = _write_min_dataset(tmp_path, [_line("r1"), _line("r2"), _line("r1")])
        with pytest.raises(MalformedLine) as exc:
            load_dataset(path)
        assert exc.value.line_no == 3
        assert "repeated record_id 'r1' (first on line 1)" in str(exc.value)

    @pytest.mark.parametrize("bad,reason", [
        ('{"record_id": 5}', "missing or invalid field 'record_id'"),
        ("nonsense", "not valid JSON (Expecting value: line 1 column 1 (char 0))"),
        # json.dumps writes a lone surrogate as the escape that decodes to it
        (_line("r2", question="a\ud800"), _LONE % "'\\ud800'"),
        (json.dumps({"record_id": "r2", "\udc80": 1}), _LONE % "'\\udc80'"),
        *((json.dumps(dict(json.loads(_line("r2")), annotations=nested_annotations(
            levels, mixed=mixed))), "missing or invalid field 'annotations'")
          for levels in (MAX_NESTING + 1, 3 * MAX_NESTING) for mixed in (False, True)),
    ])
    def test_bad_record_line_names_the_file_and_line(self, tmp_path, bad, reason):
        path = _write_min_dataset(tmp_path, [_line("r1"), bad])
        with pytest.raises(MalformedLine) as exc:
            load_records(path)
        assert str(exc.value) == f"{path}, line 2: {reason}"

    @pytest.mark.parametrize("levels", [2, MAX_NESTING])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_annotations_nested_up_to_the_bound_read(self, tmp_path, levels, mixed):
        annotations = nested_annotations(levels, mixed=mixed)
        path = _write_min_dataset(tmp_path, [json.dumps(dict(json.loads(_line("r1")),
                                                             annotations=annotations))])
        assert read_records(path)[0].annotations == annotations

    def test_surrogate_pair_escape_reads_as_its_character(self, tmp_path):
        line = _line("r1", question="\U0001f600")
        assert "\\ud83d\\ude00" in line
        path = _write_min_dataset(tmp_path, [line])
        assert read_records(path)[0].question == "\U0001f600"

    def test_crlf_record_file_loads_as_the_lf_file(self, tmp_path):
        lf = _write_min_dataset(tmp_path, [_line("r1"), _line("r2", question="a\u2028b"),
                                           "", _line("r3")])
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in crlf.read_bytes()
        assert load_records(crlf) == load_records(lf)

    def test_missing_page(self, tmp_path):
        path = _write_min_dataset(tmp_path, [_line("r1", page_id="ghost")])
        with pytest.raises(MissingPage) as exc:
            load_dataset(path)
        assert exc.value.page_id == "ghost"

    @pytest.mark.parametrize("error", [OSError(errno.ENOENT, "gone"), OSError(errno.ENOTDIR, "x"),
                                       OSError(errno.EBADF, "x"), OSError(errno.ELOOP, "x"),
                                       OSError(errno.EACCES, "denied"), OSError(errno.EIO, "x"),
                                       ValueError("embedded null byte")], ids=repr)
    def test_a_page_file_is_missing_where_path_exists_says_so(self, tmp_path, monkeypatch,
                                                              error):
        # the page check stats a string path; it calls the page missing for
        # exactly the errors Path.exists takes for absence and raises any other
        path = _write_min_dataset(tmp_path, [_line("r1")])
        page = tmp_path / "pages" / "p1.json"
        stat = os.stat

        def failing_stat(target, *args, **kwargs):
            if os.fspath(target) == str(page):
                raise error
            return stat(target, *args, **kwargs)

        monkeypatch.setattr(os, "stat", failing_stat)
        try:
            absent = not page.exists()
        except OSError:
            absent = False
        if absent:
            with pytest.raises(MissingPage) as exc:
                load_records(path)
            assert str(exc.value) == f"record references unknown page 'p1': no page file {page}"
        else:
            with pytest.raises(type(error)) as exc:
                load_records(path)
            assert exc.value is error

    def test_a_page_path_under_a_file_is_missing(self, tmp_path):
        path = _write_min_dataset(tmp_path, [_line("r1")])
        with pytest.raises(MissingPage, match="no page file .*records.jsonl/p1.json"):
            load_records(path, pages_dir=path)

    def test_missing_required_field(self, tmp_path):
        path = _write_min_dataset(tmp_path, ['{"record_id": "r1", "page_id": "p1"}'])
        with pytest.raises(MalformedLine):
            load_dataset(path)

    def test_load_records_parses_no_page_file(self, tmp_path):
        path = _write_min_dataset(tmp_path, [_line("r1", "p2"), _line("r2", "p1"),
                                             _line("r3", "p2")])
        (tmp_path / "pages" / "p2.json").write_text("{not json", encoding="utf-8")
        records, page_files = load_records(path)
        assert [r.record_id for r in records] == ["r1", "r2", "r3"]
        assert page_files == {"p2": tmp_path / "pages" / "p2.json",
                              "p1": tmp_path / "pages" / "p1.json"}
        assert read_records(path) == records
        with pytest.raises(IoFailure, match="p2.json is not valid JSON"):
            load_dataset(path)

    def test_bad_record_line_reported_before_a_bad_page_file(self, tmp_path):
        path = _write_min_dataset(tmp_path, [_line("r1"), '{"record_id": 5}'])
        (tmp_path / "pages" / "p1.json").write_text("[]", encoding="utf-8")
        with pytest.raises(MalformedLine) as exc:
            load_dataset(path)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("text", ["[]", '{"page_id": "p1", "width": "wide", '
                                            '"height": 10, "tokens": []}'])
    def test_page_file_that_is_not_a_page_object(self, tmp_path, text):
        path = tmp_path / "p1.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IoFailure, match="p1.json"):
            load_page(path, "p1")

    # each case is named by the field it spoils and the value put there
    @pytest.mark.parametrize("at,value", [
        ("tokens[0].text", 5),
        ("tokens[0].text", None),
        ("tokens[0].confidence", "0.9"),
        ("tokens[0].confidence", True),
        ("regions[0].kind", 7),
        ("regions[0].score", "x"),
        ("regions[0].score", [1]),
        ("width", True),
        ("tokens[0].bbox", [1, 1, True, 5]),
    ], ids=str)
    def test_page_value_of_the_wrong_type(self, tmp_path, at, value):
        page = {"page_id": "p1", "width": 100, "height": 100,
                "tokens": [{"text": "a", "bbox": [1, 1, 5, 5], "confidence": 0.5}],
                "regions": [{"kind": "table", "bbox": [0, 0, 50, 50], "score": 1}]}
        items, _, field = at.rpartition(".")
        (page[items.removesuffix("[0]")][0] if items else page)[field] = value
        path = tmp_path / "p1.json"
        path.write_text(json.dumps(page), encoding="utf-8")
        with pytest.raises(IoFailure) as exc:
            load_page(path, "p1")
        assert str(exc.value) == f"{path}: missing or invalid field {at!r}"

    @settings(max_examples=500, deadline=None)
    @given(obj=_page_values())
    def test_one_pass_parse_matches_the_field_passes(self, obj):
        # the reference words its refusals in its own way: both parsers must
        # refuse the same values and read the others as equal pages, clamped
        # alike
        try:
            page, changed = _page_from_dict(obj, "p.json")
        except IoFailure as exc:
            assert re.fullmatch(r"p\.json: (page is not a JSON object"
                                r"|missing or invalid field '.+')", str(exc)), exc
            with pytest.raises(IoFailure):
                page_from_dict_passes(obj, "p.json")
        else:
            want, want_changed = clamp_page_reference(page_from_dict_passes(obj, "p.json"))
            assert repr(page) == repr(want) and changed == want_changed

    @pytest.mark.parametrize("value", [None, 0, 1, 0.25])
    def test_confidence_and_score_may_be_null_or_any_number(self, tmp_path, value):
        path = tmp_path / "p1.json"
        path.write_text(json.dumps({
            "page_id": "p1", "width": 100, "height": 100,
            "tokens": [{"text": "a", "bbox": [1, 1, 5, 5], "confidence": value}],
            "regions": [{"kind": "x", "bbox": [0, 0, 50, 50], "score": value}]}),
            encoding="utf-8")
        page = load_page(path, "p1")
        assert page.tokens[0].confidence == value and page.regions[0].score == value

    def test_out_of_bounds_box_clamped_on_load(self, tmp_path, caplog):
        pages = tmp_path / "pages"
        pages.mkdir()
        page = mkpage("p1", tokens=[mktok("edge", 990, 10, 1020, 25)])
        write_page(page, pages / "p1.json")
        with caplog.at_level(logging.WARNING, logger="proctag.ingest"):
            loaded = load_page(pages / "p1.json", "p1")
        assert loaded.tokens[0].bbox.x1 == 1000.0
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("proctag.ingest", "WARNING", "page p1: clamped 1 out-of-bounds boxes")]


class TestClamp:
    """The page parser clamps each box into the page as it builds it."""

    def test_clamp_counts_boxes(self):
        page = mkpage(tokens=[mktok("a", -5, 10, 40, 25), mktok("b", 0, 0, 10, 10)])
        clamped, changed = _page_from_dict(_page_to_dict(page), "p.json")
        assert changed == 1
        assert clamped.tokens[0].bbox == mkbox(0, 10, 40, 25)
        assert clamped.tokens[1] == page.tokens[1]

    def test_valid_page_untouched(self):
        page = mkpage(tokens=[mktok("a", 0, 0, 10, 10)])
        parsed, changed = _page_from_dict(_page_to_dict(page), "p.json")
        assert changed == 0 and parsed == page

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        width, height = data.draw(st.sampled_from(((PAGE_W, PAGE_H), (PAGE_H, PAGE_W))))
        # boxes inside the page, possibly inverted; then a few coordinates
        # moved anywhere: outside, onto an edge, or to a non-finite value
        inside = st.tuples(*(st.floats(0, limit) for limit in (width, height, width, height)))
        boxes = data.draw(st.lists(inside, max_size=6))
        anywhere = (st.floats(-50, max(width, height) + 50)
                    | st.floats(min(width, height), max(width, height))
                    | st.sampled_from((0, 0.0, -0.0, width, height, int(width), int(height)))
                    | st.sampled_from((math.nan, math.inf, -math.inf)))
        if boxes:
            moves = st.tuples(st.integers(0, len(boxes) - 1), st.integers(0, 3), anywhere)
            for i, k, value in data.draw(st.lists(moves, max_size=3)):
                boxes[i] = boxes[i][:k] + (value,) + boxes[i][k + 1:]
        # half the pages then take an int, zero, negative or NaN size instead
        page_w, page_h = (data.draw(st.just(size) | st.sampled_from((int(size), 0, -5, -5.0,
                                                                      math.nan)))
                          for size in (width, height))
        split = data.draw(st.integers(0, len(boxes)))
        obj = _page_to_dict(mkpage(tokens=[mktok(f"t{i}", *b) for i, b in enumerate(boxes[:split])],
                                   regions=[mkreg("table", *b) for b in boxes[split:]],
                                   width=page_w, height=page_h))
        got, got_changed = _page_from_dict(obj, "p.json")
        want, want_changed = clamp_page_reference(page_from_dict_passes(obj, "p.json"))
        # reprs, so NaN equals NaN, 0 differs from -0.0 and 1000 from 1000.0
        assert repr(got) == repr(want) and got_changed == want_changed


class TestAtomicWrite:
    def test_concurrent_writers_of_one_path(self, tmp_path):
        path = tmp_path / "manifest.json"
        texts = set()

        def write_many():
            for i in range(20):
                text = f"{threading.get_ident()} {i}\n"
                texts.add(text)
                atomic_write_text(path, text)

        assert run_together(write_many) == []
        assert path.read_text(encoding="utf-8") in texts
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_chunks_are_written_under_their_digest_name(self, tmp_path):
        chunks = ["a\n", "\u00e9 \u2028\n", ""]
        path = atomic_write_text(tmp_path / "stage.jsonl", iter(chunks),
                                 name=lambda digest: f"stage-{digest[:12]}.jsonl")
        data = "".join(chunks).encode("utf-8")
        assert path.name == f"stage-{hashlib.sha256(data).hexdigest()[:12]}.jsonl"
        assert path.read_bytes() == data
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_failing_chunk_leaves_no_file(self, tmp_path):
        def chunks():
            yield "written\n"
            yield "\ud800"  # a lone surrogate has no UTF-8 encoding

        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "stage.jsonl", chunks())
        assert list(tmp_path.iterdir()) == []

    def test_os_error_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            atomic_write_text(tmp_path / "missing" / "f.json", "{}")
        assert list(tmp_path.iterdir()) == []
