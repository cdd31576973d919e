"""Every reader of a line file, against lines one mutation away from a line
its writer wrote: the line reads, or it is a :class:`MalformedLine` naming
its file and line, and no other exception escapes the reader. A page file,
mutated the same way, reads or is an :class:`IoFailure` naming the file and
the first bad field.

A mutation deletes a key or list item at any depth, replaces a value with
JSON of another type (NaN included), or replaces the whole line with a
scalar or a list. Every such mutation with a value from :data:`OTHER_TYPES`
is tried on each target line; hypothesis draws further values.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proctag import cli, procgen
from proctag.config import PipelineConfig
from proctag.ingest import (IoFailure, MalformedLine, dumps_json, load_page, read_jsonl,
                            read_records, write_dataset)
from proctag.render import DocumentRepresentation
from proctag.synth import make_dataset

# deletes the key or list item instead of setting it
DELETE = object()
OTHER_TYPES = [None, True, 0, 1.5, math.nan, "x", [], ["x"], [1], {}, {"x": 1}]


def _golds(path: Path) -> dict[str, Any]:
    return cli._eval_input(str(path), "answers", cli._answer_list, "a non-empty list of strings")


# reader -> (the file it reads, the command reading it, how it reads it
# given the file and the tree)
READERS: dict[str, tuple[str, str | None, Callable[[Path, Path], Any]]] = {
    "render": ("render", "generate", lambda path, root: cli.STAGES["generate"].read(
        path, _config(root))),
    "generate": ("generate", "tag --stage extract",
                 lambda path, _: cli.STAGES["extract"].read(path, None)),
    "tags_raw": ("tags_raw", "tag --stage normalize",
                 lambda path, _: cli.STAGES["normalize"].read(path, None)),
    "profiles": ("profiles", "assess", lambda path, _: cli.read_profiles(path)),
    "records": ("records", None, lambda path, _: read_records(path)),
    "gold": ("records", None, lambda path, _: _golds(path)),
    "pred": ("pred", None, lambda path, root: cli._eval_input(
        str(path), "predicted", lambda v: isinstance(v, str), "a string", "gold",
        _golds(root / "data" / "records.jsonl"))),
}
# (reader, line): line 2 of each file, the discarded record at the end of
# generate, and the vocabulary line of profiles
TARGETS = [*((reader, 2) for reader in READERS), ("generate", 7), ("profiles", 1)]


def _config(root: Path) -> PipelineConfig:
    cfg = PipelineConfig()
    cfg.paths.dataset = str(root / "data" / "records.jsonl")
    return cfg


@pytest.fixture(scope="module")
def tree(tmp_path_factory) -> Path:
    """A demo dataset of 6 records, a finished mock pipeline over it whose
    generate artifact also holds a discarded record, and a prediction file."""
    root = tmp_path_factory.mktemp("tree")
    records = root / "data" / "records.jsonl"
    write_dataset(make_dataset(seed=11, n_pages=3, records_per_page=2), records)
    out = root / "out"
    assert cli.run(["pipeline", "--dataset", str(records), "--out", str(out)]) == 0
    rec = replace(read_records(records)[0], record_id="discarded")
    rep = next(read_jsonl(cli._read_stage(out, "render"), DocumentRepresentation.from_dict))
    discard = procgen.Discarded(rec.record_id, "no pseudo-code block", 3, "find_total(document)")
    with open(cli._read_stage(out, "generate"), "a", encoding="utf-8") as fh:
        fh.write(cli._encode_generated([(rec, discard)], {rec.page_id: rep})[0])
    (root / "pred.jsonl").write_text("".join(
        dumps_json({"record_id": r.record_id, "predicted": "x"}) + "\n"
        for r in read_records(records)), encoding="utf-8")
    return root


def _file(root: Path, name: str) -> Path:
    if name == "records":
        return root / "data" / "records.jsonl"
    if name == "pred":
        return root / "pred.jsonl"
    return cli._read_stage(root / "out", name)


def _slots(value: Any, path: tuple = ()) -> Iterator[tuple]:
    """The path of every key and list item at any depth of ``value``."""
    items = value.items() if type(value) is dict else enumerate(value) \
        if type(value) is list else ()
    for key, item in items:
        yield (*path, key)
        yield from _slots(item, (*path, key))


def _mutated(value: Any, path: tuple, new: Any) -> Any:
    """``value`` with the item at ``path`` set to ``new``, or deleted; the
    empty path replaces the whole value."""
    if not path:
        return new
    value = copy.deepcopy(value)
    inner = value
    for key in path[:-1]:
        inner = inner[key]
    if new is DELETE:
        del inner[path[-1]]
    else:
        inner[path[-1]] = new
    return value


def _get(value: Any, path: tuple) -> Any:
    for key in path:
        value = value[key]
    return value


def _mutations(value: Any) -> Iterator[tuple[tuple, Any]]:
    """Every deletion, and every replacement by a value of another type."""
    for path in _slots(value):
        yield path, DELETE
    for path in ((), *_slots(value)):
        old = _get(value, path)
        for new in OTHER_TYPES:
            if type(new) is not type(old):
                yield path, new


def _write(root: Path, reader: str, line_no: int, path: tuple, new: Any) -> Path:
    """Put the mutated line into the reader's file, which it returns."""
    file = _file(root, READERS[reader][0])
    lines = file.read_text(encoding="utf-8").split("\n")
    lines[line_no - 1] = json.dumps(_mutated(json.loads(lines[line_no - 1]), path, new))
    file.write_text("\n".join(lines), encoding="utf-8")
    return file


def _outcome(root: Path, reader: str, line_no: int, file: Path) -> MalformedLine | None:
    """None if the file reads, or the MalformedLine it raised, which must
    name the file and the mutated line, or for a mutated vocabulary a later
    line whose index it no longer holds."""
    try:
        READERS[reader][2](file, root)
    except MalformedLine as exc:
        prefix, _, _ = str(exc).partition(": ")
        at = int(prefix.rpartition(", line ")[2])
        assert prefix == f"{file}, line {at}"
        assert at == line_no or reader == "profiles" and line_no == 1 < at, exc
        return exc
    return None


@pytest.mark.parametrize("reader, line_no", TARGETS, ids=[f"{r}-line{n}" for r, n in TARGETS])
def test_every_mutation_reads_or_names_its_line(tree, tmp_path, reader, line_no):
    root = Path(shutil.copytree(tree, tmp_path / "root"))
    file = _file(root, READERS[reader][0])
    original = file.read_bytes()
    value = json.loads(original.decode("utf-8").split("\n")[line_no - 1])
    refused = 0
    for path, new in _mutations(value):
        _write(root, reader, line_no, path, new)
        refused += _outcome(root, reader, line_no, file) is not None
        file.write_bytes(original)
    # a required field deleted at the top refuses the line
    assert refused


_json = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(), inner, max_size=3), max_leaves=6)


@st.composite
def _mutation(draw, tree: Path, targets: list[tuple[str, int]]) -> tuple[str, int, tuple, Any]:
    reader, line_no = draw(st.sampled_from(targets))
    text = _file(tree, READERS[reader][0]).read_text(encoding="utf-8").split("\n")[line_no - 1]
    value = json.loads(text)
    path = draw(st.sampled_from([(), *_slots(value)]))
    new = draw(st.just(DELETE) | _json) if path else draw(_json)
    return reader, line_no, path, new


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_value_reads_or_names_its_line(tree, data):
    reader, line_no, path, new = data.draw(_mutation(tree, TARGETS))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(shutil.copytree(tree, Path(tmp) / "root"))
        _outcome(root, reader, line_no, _write(root, reader, line_no, path, new))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_refused_artifact_line_exits_1_with_its_error(tree, data):
    reader, line_no, path, new = data.draw(_mutation(tree, [
        target for target in TARGETS if READERS[target[0]][1] is not None]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(shutil.copytree(tree, Path(tmp) / "root"))
        error = _outcome(root, reader, line_no, _write(root, reader, line_no, path, new))
        assume(error is not None)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(READERS[reader][1].split() + [
                "--dataset", str(root / "data" / "records.jsonl"), "--out", str(root / "out")])
    assert code == 1
    assert err.getvalue() == f"error: {error}\n"


# a page file of the tree, which render reads
PAGE = "data/pages/p0000.json"


def _field(path: tuple) -> str:
    """A slot's path as the page parser names it, such as ``tokens[3].bbox``."""
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path).lstrip(".")


def test_every_page_mutation_reads_or_names_its_field(tree, tmp_path):
    file = tmp_path / "p.json"
    page = json.loads((tree / PAGE).read_text(encoding="utf-8"))
    refused = 0
    for path, new in _mutations(page):
        file.write_text(json.dumps(_mutated(page, path, new)), encoding="utf-8")
        try:
            load_page(file, page["page_id"])
        except IoFailure as exc:
            refused += 1
            if not path and type(new) is not dict:
                assert str(exc) == f"{file}: page is not a JSON object"
                continue
            prefix = f"{file}: missing or invalid field '"
            assert str(exc).startswith(prefix) and str(exc).endswith("'"), exc
            # the original page is valid, so the first bad field is the
            # mutated slot or holds it
            named, slot = str(exc)[len(prefix):-1], _field(path)
            assert not path or slot == named or slot.startswith((f"{named}.", f"{named}[")), exc
    assert refused


def test_a_refused_page_file_exits_1_with_its_error(tree, tmp_path):
    root = Path(shutil.copytree(tree, tmp_path / "root"))
    page = json.loads((root / PAGE).read_text(encoding="utf-8"))
    del page["tokens"][1]["text"]
    (root / PAGE).write_text(json.dumps(page), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(["render", "--dataset", str(root / "data" / "records.jsonl"),
                        "--out", str(root / "new")])
    assert code == 1
    assert err.getvalue() == f"error: {root / PAGE}: missing or invalid field 'tokens[1].text'\n"
    assert not (root / "new").exists()
