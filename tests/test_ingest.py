from __future__ import annotations

import hashlib
import json
import math
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (PAGE_H, PAGE_W, dataset_st, mkbox, mkpage, mkreg, mktok,
                      run_together)
from oracles import clamp_page_reference, page_from_dict_passes
from proctag.ingest import (Dataset, InstructionRecord, IoFailure,
                            MalformedLine, MissingPage, _page_from_dict, atomic_write_text,
                            clamp_page, load_dataset, load_page, load_records,
                            read_records, validate_page,
                            write_dataset, write_page)


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
    ])
    def test_bad_record_line_names_the_file_and_line(self, tmp_path, bad, reason):
        path = _write_min_dataset(tmp_path, [_line("r1"), bad])
        with pytest.raises(MalformedLine) as exc:
            load_records(path)
        assert str(exc.value) == f"{path}, line 2: {reason}"

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
            load_page(path)

    # fault: what is wrong with the value, which names the case
    @pytest.mark.parametrize("items,field,value,fault", [
        ("tokens", "text", 5, "token 0: text must be a string, got 5"),
        ("tokens", "text", None, "token 0: text must be a string, got None"),
        ("tokens", "confidence", "0.9", "token 0: confidence must be null or a number"),
        ("tokens", "confidence", True, "token 0: confidence must be null or a number"),
        ("regions", "kind", 7, "region 0: kind must be a string, got 7"),
        ("regions", "score", "x", "region 0: score must be null or a number, got 'x'"),
        ("regions", "score", [1], "region 0: score must be null or a number"),
        ("page", "width", True, "page width and height must be numbers"),
        ("tokens", "bbox", [1, 1, True, 5], "bbox must be a list of 4 numbers"),
    ])
    def test_page_value_of_the_wrong_type(self, tmp_path, items, field, value, fault):
        page = {"page_id": "p1", "width": 100, "height": 100,
                "tokens": [{"text": "a", "bbox": [1, 1, 5, 5], "confidence": 0.5}],
                "regions": [{"kind": "table", "bbox": [0, 0, 50, 50], "score": 1}]}
        (page if items == "page" else page[items][0])[field] = value
        path = tmp_path / "p1.json"
        path.write_text(json.dumps(page), encoding="utf-8")
        with pytest.raises(IoFailure) as exc:
            load_page(path)
        at = field if items == "page" else f"{items}[0].{field}"
        assert str(exc.value) == f"{path}: missing or invalid field {at!r}"

    @settings(max_examples=500, deadline=None)
    @given(obj=_page_values())
    def test_one_pass_parse_matches_the_field_passes(self, obj):
        # the reference words its refusals in its own way: both parsers must
        # refuse the same values and read the others as equal pages
        try:
            page = _page_from_dict(obj, "p.json")
        except IoFailure as exc:
            assert re.fullmatch(r"p\.json: (page is not a JSON object"
                                r"|missing or invalid field '.+')", str(exc)), exc
            with pytest.raises(IoFailure):
                page_from_dict_passes(obj, "p.json")
        else:
            assert repr(page) == repr(page_from_dict_passes(obj, "p.json"))

    @pytest.mark.parametrize("value", [None, 0, 1, 0.25])
    def test_confidence_and_score_may_be_null_or_any_number(self, tmp_path, value):
        path = tmp_path / "p1.json"
        path.write_text(json.dumps({
            "page_id": "p1", "width": 100, "height": 100,
            "tokens": [{"text": "a", "bbox": [1, 1, 5, 5], "confidence": value}],
            "regions": [{"kind": "x", "bbox": [0, 0, 50, 50], "score": value}]}),
            encoding="utf-8")
        page = load_page(path)
        assert page.tokens[0].confidence == value and page.regions[0].score == value

    def test_out_of_bounds_box_clamped_on_load(self, tmp_path, caplog):
        pages = tmp_path / "pages"
        pages.mkdir()
        page = mkpage("p1", tokens=[mktok("edge", 990, 10, 1020, 25)])
        write_page(page, pages / "p1.json")
        loaded = load_page(pages / "p1.json")
        assert loaded.tokens[0].bbox.x1 == 1000.0


class TestValidatePage:
    def test_inverted_box(self):
        page = mkpage(tokens=[mktok("a", 50, 10, 20, 25)])
        violations = validate_page(page)
        assert len(violations) == 1
        assert violations[0].code == "bbox_inverted"
        assert violations[0].path == "tokens[0].bbox"

    def test_out_of_bounds_box(self):
        page = mkpage(tokens=[mktok("a", 10, 10, 1200, 25)])
        codes = [v.code for v in validate_page(page)]
        assert codes == ["bbox_out_of_bounds"]

    def test_conforming_page(self):
        page = mkpage(tokens=[mktok("a", 10, 10, 40, 25, confidence=0.9)],
                      regions=[mkreg("table", 0, 0, 500, 600, score=0.8)])
        assert validate_page(page) == []

    @pytest.mark.parametrize("page,code", [
        (mkpage(tokens=[mktok("   ", 0, 0, 10, 10)]), "empty_text"),
        (mkpage(tokens=[mktok("a", 0, 0, float("nan"), 10)]), "bbox_nonfinite"),
        (mkpage(tokens=[mktok("a", -5, 0, 10, 10)]), "bbox_negative"),
        (mkpage(tokens=[mktok("a", 0, 0, 10, 10, confidence=1.5)]), "bad_confidence"),
        (mkpage(regions=[mkreg("", 0, 0, 10, 10)]), "empty_kind"),
        (mkpage(regions=[mkreg("table", 0, 0, 10, 10, score=-0.1)]), "bad_score"),
        (mkpage(width=0), "bad_page_size"),
    ])
    def test_each_invariant_triggers_exactly_one_violation(self, page, code):
        violations = validate_page(page)
        assert [v.code for v in violations] == [code]


class TestWriteDataset:
    def test_round_trip_small(self, tmp_path):
        ds = Dataset(
            records=[InstructionRecord("r1", "p1", "What total?", ["12", "12.0"])],
            pages={"p1": mkpage("p1", tokens=[mktok("total", 5, 5, 55, 20)],
                                regions=[mkreg("table", 0, 0, 300, 200, score=0.5)])})
        write_dataset(ds, tmp_path / "records.jsonl")
        assert load_dataset(tmp_path / "records.jsonl") == ds

    def test_annotations_preserved(self, tmp_path):
        ann = {"process": {"steps": [{"fn": "find_table"}], "attempts": 2},
               "tags": {"raw": ["find_table"]}}
        ds = Dataset(records=[InstructionRecord("r1", "p1", "q", ["a"], annotations=ann)],
                     pages={"p1": mkpage("p1")})
        write_dataset(ds, tmp_path / "records.jsonl")
        reloaded = load_dataset(tmp_path / "records.jsonl")
        assert reloaded.records[0].annotations == ann

    def test_unwritable_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a dir", encoding="utf-8")
        ds = Dataset(records=[], pages={})
        with pytest.raises(IoFailure):
            write_dataset(ds, blocker / "sub" / "records.jsonl")

    def test_hostile_page_id_rejected(self, tmp_path):
        ds = Dataset(records=[], pages={"../escape": mkpage("../escape")})
        with pytest.raises(IoFailure, match="filesystem-safe"):
            write_dataset(ds, tmp_path / "records.jsonl")

    @settings(max_examples=40, deadline=None)
    @given(ds=dataset_st())
    def test_round_trip_property(self, tmp_path_factory, ds):
        root = tmp_path_factory.mktemp("roundtrip")
        write_dataset(ds, root / "records.jsonl")
        assert load_dataset(root / "records.jsonl") == ds


class TestClamp:
    def test_clamp_counts_boxes(self):
        page = mkpage(tokens=[mktok("a", -5, 10, 40, 25), mktok("b", 0, 0, 10, 10)])
        clamped, changed = clamp_page(page)
        assert changed == 1
        assert clamped.tokens[0].bbox == mkbox(0, 10, 40, 25)
        assert clamped.tokens[1] == page.tokens[1]

    def test_valid_page_untouched(self):
        page = mkpage(tokens=[mktok("a", 0, 0, 10, 10)])
        clamped, changed = clamp_page(page)
        assert changed == 0 and clamped is page

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
        split = data.draw(st.integers(0, len(boxes)))
        page = mkpage(tokens=[mktok(f"t{i}", *b) for i, b in enumerate(boxes[:split])],
                      regions=[mkreg("table", *b) for b in boxes[split:]],
                      width=width, height=height)
        got, got_changed = clamp_page(page)
        want, want_changed = clamp_page_reference(page)
        assert got_changed == want_changed
        assert _exact(got) == _exact(want)
        assert (got is page) == (want is page)


def _exact(page):
    """The page's values as reprs, so NaN equals NaN and 0 differs from -0.0."""
    return (page.page_id, page.width, page.height,
            [(t.text, repr(t.bbox.as_list()), t.confidence) for t in page.tokens],
            [(r.kind, repr(r.bbox.as_list()), r.score) for r in page.regions])


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
