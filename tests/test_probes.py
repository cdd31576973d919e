"""Every bad-input probe of the command line, as the rows of one table.

Each row of :data:`PROBES` mutates a copy of a shared tree and runs one
command in-process through ``cli.run``. The tree is built once per module:

- ``data``: a demo dataset of 18 records on 6 pages (``{records}`` is its
  record file);
- ``out``: the output directory of a finished ``pipeline`` over it
  (``{manifest}`` is its manifest, ``{art[<stage>]}`` an artifact);
- ``cache``: a completion cache filled for its plaintext renderings
  (``{log}`` is its log).

``{new}`` names a directory that does not exist yet, and ``{root}`` the copy
itself. A row's argv is split on spaces, and each word and its stderr are
formatted with these names and with the ones its mutation adds (``{path}``:
the file it broke). ``cli.CHUNK`` is 2, so the pages and records split into
several chunks, which run in forked workers when the row sees 2 CPUs.

For every row the harness checks the exit code; no traceback; for exit 1,
exactly one stderr line, starting with ``error: `` (for exit 2, argparse's
usage); the stderr text, whole or as a fragment; and what the command wrote.
Nothing in the tree may change, and ``{new}`` must not exist unless the row
names the stages whose artifacts it then holds, beside the manifest. Stdout
is empty unless a stage completed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

from conftest import nested_annotations
from proctag import cli, tagnorm
from proctag.ingest import MAX_NESTING, dumps_json, write_dataset
from proctag.synth import make_dataset
from test_cli import _cpus, _fill_mock_cache

ARGS = "--dataset {records} --out {out}"
NEW = "--dataset {records} --out {new}"
CFG = "pipeline --config {root}/cfg.yaml " + NEW
ANLS = "eval anls --pred {root}/pred.jsonl --gold {root}/gold.jsonl"
REPLAY = "pipeline --style plaintext --backend cache --cache-dir {cache} " + NEW


@dataclass(frozen=True)
class Probe:
    id: str
    argv: str
    err: str  # stderr after "error: ", or a fragment of it when not exact
    mutate: Callable[[dict[str, Any]], None] = lambda names: None
    cpus: int = 1
    code: int = 1
    exact: bool = True
    new: tuple[str, ...] | None = None  # the stages whose artifacts {new} holds


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split("\n")


def _put(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines), encoding="utf-8")


def _write(name: str, content: str | bytes) -> Callable[[dict[str, Any]], None]:
    """A mutation writing ``content`` to ``{root}/<name>``."""
    data = content if isinstance(content, bytes) else content.encode("utf-8")
    return lambda n: (n["root"] / name).write_bytes(data)


def _edit_manifest(n: dict[str, Any], **entries: str | None) -> None:
    """Set the manifest entries given a name, and drop those given None."""
    manifest = json.loads(n["manifest"].read_text(encoding="utf-8"))
    for stage, name in entries.items():
        if name is None:
            del manifest[stage]
        else:
            manifest[stage] = name
    n["manifest"].write_text(dumps_json(manifest) + "\n", encoding="utf-8")


def _eval_files(pred: list[str], gold: list[str]) -> Callable[[dict[str, Any]], None]:
    def mutate(n):
        for name, lines in (("pred", pred), ("gold", gold)):
            (n["root"] / f"{name}.jsonl").write_text("".join(f"{line}\n" for line in lines),
                                                     encoding="utf-8")
    return mutate


def _first_record(**fields: Any) -> Callable[[dict[str, Any]], None]:
    """Set ``fields`` in line 1 of the record file, as ``json.dumps`` writes
    them: a lone surrogate as its ``\\u`` escape."""
    def mutate(n):
        lines = _lines(n["records"])
        lines[0] = json.dumps(dict(json.loads(lines[0]), **fields))
        _put(n["records"], lines)
    return mutate


def _repeat_record_id(n):
    lines = _lines(n["records"])
    n["rid"] = json.loads(lines[0])["record_id"]
    lines[3] = json.dumps(dict(json.loads(lines[3]), record_id=n["rid"]))
    _put(n["records"], lines)


def _other_profiles(name: str) -> Callable[[dict[str, Any]], None]:
    """Point the profiles entry at ``name``, where "profiles" stands for the
    artifact's name and ``{other}`` for a copy of the output directory."""
    def mutate(n):
        other = shutil.copytree(n["out"], n["root"] / "other")
        _edit_manifest(n, profiles=name.replace("profiles", n["art"]["profiles"].name)
                       .format(other=other))
    return mutate


def _drop_stages(*stages: str) -> Callable[[dict[str, Any]], None]:
    def mutate(n):
        for stage in stages:
            n["art"][stage].unlink()
        _edit_manifest(n, **dict.fromkeys(stages))
    return mutate


def _not_utf8(target: str) -> Callable[[dict[str, Any]], None]:
    """Append a byte that is not UTF-8 to ``{path}``, as line ``{line}``."""
    def mutate(n):
        if target == "pred":  # a prediction for the first record
            _write("pred.jsonl", '{"record_id": "r00000", "predicted": "x"}\n')(n)
        path = n["path"] = (n["records"] if target == "records" else
                            n["root"] / "pred.jsonl" if target == "pred" else n["art"][target])
        n["line"] = path.read_bytes().count(b"\n") + 1
        with open(path, "ab") as fh:
            fh.write(b"\xff")
    return mutate


def _edit_profiles(edit: Callable[[list[list]], None]) -> Callable[[dict[str, Any]], None]:
    """Edit the four columns of profiles (``{path}``) in place, as ``edit``
    does; before that, ``{n_tags}``, ``{n_ids}`` and ``{n_indices}`` name
    the length of the vocabulary, record ids and tag indices, ``{tagged}``
    the first record with a tag and ``{second}`` the second record; after
    it, ``{n_counts}`` and ``{total}`` the number and sum of the counts."""
    def mutate(n):
        path = n["path"] = n["art"]["profiles"]
        columns = [json.loads(line) for line in _lines(path)[:4]]
        vocab, ids, counts, indices = columns
        n.update(n_tags=len(vocab), n_ids=len(ids), n_indices=len(indices), second=ids[1],
                 tagged=next(rid for rid, count in zip(ids, counts) if count))
        edit(columns)
        n.update(n_counts=len(columns[2]), total=sum(columns[2]))
        path.write_text("".join(dumps_json(column) + "\n" for column in columns),
                        encoding="utf-8")
    return mutate


def _repeat_first_line(stage: str, key: str) -> Callable[[dict[str, Any]], None]:
    """Append line ``{first}`` of the artifact again, as line ``{line}``."""
    def mutate(n):
        path = n["path"] = n["art"][stage]
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")[:-1]
        n["repeated"] = json.loads(lines[0])[key]
        n["first"], n["line"] = 1, len(lines) + 1
        path.write_text(text + lines[0] + "\n", encoding="utf-8")
    return mutate


# upstream stage -> the command that reads it
_ARTIFACT_READERS = {"render": "generate", "generate": "tag --stage extract",
                     "tags_raw": "tag --stage normalize"}
# deletes the key instead of setting it
DELETE = object()


def _invalid(field: str) -> str:
    return f"missing or invalid field {field!r}"


# (stage, id, key path into line 2's object or None for the whole line, value,
# the reason after "{path}, line 2: ")
_MALFORMED_LINES = [
    *((stage, name, None, line, reason)
      for stage, first in (("render", "page_id"), ("generate", "record_id"),
                           ("tags_raw", "record_id"))
      for name, line, reason in (
          ("not-json", "nonsense", "not valid JSON (Expecting value: line 1 column 1 (char 0))"),
          ("empty-object", "{}", _invalid(first)), ("list", "[1]", "not an object"))),
    ("render", "page-id-not-string", ("page_id",), 5, _invalid("page_id")),
    ("render", "text-not-string", ("text",), ["find_x"], _invalid("text")),
    ("render", "token-count-not-int", ("token_count",), "3", _invalid("token_count")),
    ("generate", "record-id-not-string", ("record_id",), 5, _invalid("record_id")),
    ("generate", "only-record-id", None, '{"record_id": "r"}', _invalid("annotations")),
    ("generate", "steps-a-string", ("annotations", "process", "steps"), "find_x",
     _invalid("annotations.process.steps")),
    *(("generate", f"{field.replace('_', '-')}-{name}", ("annotations", "process", "steps", 0,
                                                        field), value,
       _invalid(f"annotations.process.steps[0].{field}"))
      for field, name, value in (("function_name", "not-string", 5),
                                 ("function_name", "null", None), ("index", "not-int", "x"),
                                 ("args", "a-string", "doc"))),
    *(("generate", f"{field.replace('_', '-')}-{name}", ("annotations", "process", field), value,
       _invalid(f"annotations.process.{field}"))
      for field, name, value in (("final_answer", "not-string", 7),
                                 ("final_answer", "missing", DELETE),
                                 ("attempts", "not-int", "x"))),
    ("generate", "process-and-discarded", ("annotations", "discarded"),
     {"reason": "x", "attempts": 3, "last_completion": None},
     "annotations must hold exactly one of 'process' and 'discarded'"),
    ("generate", "last-completion-not-string",
     ("annotations",), {"discarded": {"reason": "x", "attempts": 1, "last_completion": 0}},
     _invalid("annotations.discarded.last_completion")),
    ("tags_raw", "record-id-not-string", ("record_id",), 5, _invalid("record_id")),
    ("tags_raw", "only-record-id", None, '{"record_id": "r"}', _invalid("annotations")),
    ("tags_raw", "tags-a-string", ("annotations", "tags", "raw"), "find_x",
     _invalid("annotations.tags.raw")),
    ("tags_raw", "tag-not-string", ("annotations", "tags", "raw", 0), 5,
     _invalid("annotations.tags.raw")),
    ("tags_raw", "tag-empty", ("annotations", "tags", "raw", 0), "",
     _invalid("annotations.tags.raw")),
]


def _malformed_line(stage: str, keys: tuple | None, value: Any) -> Callable[[dict], None]:
    """Set ``keys`` in line 2 of the artifact to ``value`` (or delete the
    last of them), or replace the whole line with it."""
    def mutate(n):
        path = n["path"] = n["art"][stage]
        lines = _lines(path)
        if keys is None:
            lines[1] = value
        else:
            obj = inner = json.loads(lines[1])
            for key in keys[:-1]:
                inner = inner[key]
            if value is DELETE:
                del inner[keys[-1]]
            else:
                inner[keys[-1]] = value
            lines[1] = json.dumps(obj)
        _put(path, lines)
    return mutate


def _drop_every_4th_entry(n):
    lines = n["log"].read_bytes().splitlines(keepends=True)
    del lines[::4]
    n["log"].write_bytes(b"".join(lines))


def _bad_cache_entry(entry: str) -> Callable[[dict[str, Any]], None]:
    """Replace the middle line ``{line}`` of the log; an object keeps its
    key first, a line that is no object loses it. A surrogate in ``entry``
    is written as its three bytes."""
    def mutate(n):
        lines = n["log"].read_bytes().splitlines(keepends=True)
        k = n["line"] = len(lines) // 2 + 1
        key = lines[k - 1][9:73].decode()
        text = entry.replace("{", f'{{"key": "{key}", ', 1) if entry.startswith("{") else entry
        lines[k - 1] = text.encode("utf-8", "surrogatepass") + b"\n"
        n["log"].write_bytes(b"".join(lines))
    return mutate


def _embedding_cache(edit: Callable[[list], list]) -> Callable[[dict[str, Any]], None]:
    """An embedding cache ``{root}/ecache`` of the run's filtered tags, in
    which the vector of the first tag that dbscan reads, on line ``{line}``
    of the log ``{path}``, is edited."""
    def mutate(n):
        filtered = json.loads(n["art"]["vocab"].read_text(encoding="utf-8"))["stages"]["filtered"]
        embedder = tagnorm.CachingEmbedder(n["root"] / "ecache", inner=tagnorm.HashingEmbedder())
        for tag in filtered:
            embedder.embed(tag)
        n["tag"] = min(filtered)
        log = n["path"] = n["root"] / "ecache" / "entries.jsonl"
        entries = [json.loads(line) for line in _lines(log)[:-1]]
        n["line"] = 1 + next(k for k, e in enumerate(entries) if e["tag"] == n["tag"])
        log.write_text("".join(json.dumps(dict(e, vector=edit(e["vector"])) if e["tag"] == n["tag"]
                                          else e) + "\n" for e in entries), encoding="utf-8")
    return mutate


# the last of the tree's 6 page files: the chunks before its own render first
LAST_PAGE = "data/pages/p0005.json"


def _edit_last_page(edit: Callable[[dict[str, Any]], Any]) -> Callable[[dict[str, Any]], None]:
    def mutate(n):
        path = n["root"] / LAST_PAGE
        page = json.loads(path.read_text(encoding="utf-8"))
        edit(page)
        path.write_text(json.dumps(page), encoding="utf-8")
    return mutate


def _record_page_id(page_id: str) -> Callable[[dict[str, Any]], None]:
    """Point line 2 of the record file at ``page_id``, and put a copy of its
    page, with that id, where ``<pages>/<page_id>.json`` would find it."""
    def mutate(n):
        lines = _lines(n["records"])
        record = json.loads(lines[1])
        page = json.loads((n["data"] / "pages" / f"{record['page_id']}.json").read_text())
        (n["data"] / "pages" / f"{page_id}.json").write_text(json.dumps(dict(page,
                                                                             page_id=page_id)))
        lines[1] = json.dumps(dict(record, page_id=page_id))
        _put(n["records"], lines)
    return mutate


def _record_on_unrendered_page(n):
    first = json.loads(_lines(n["records"])[0])
    n["records"].write_text(json.dumps(dict(first, record_id="extra", page_id="unrendered"))
                            + "\n", encoding="utf-8")


_MISTYPED = [
    ("sampling", "ratio", "'0.3'", "float or None, got '0.3'"),
    ("tagging", "dbscan_eps", "abc", "float, got 'abc'"),
    ("sampling", "mode", "nope", "one of ('budget', 'ratio', 'coverage', 'random'), got 'nope'"),
    ("tagging", "min_count", "2.5", "int or None, got 2.5"),
    ("sampling", "seed", "[1]", "int, got [1]"),
    ("render", "max_chars", "true", "int or None, got True"),
    ("generation", "temperature", "hot", "float, got 'hot'"),
    ("generation", "max_inflight", "two", "int, got 'two'"),
    # an int no float can hold
    ("sampling", "ratio", "1" + "0" * 400, "float or None, got 1" + "0" * 400),
]
_OUT_OF_RANGE = [
    ("sampling", "ratio", "5", "<= 1, got 5.0"), ("sampling", "ratio", "0", "> 0, got 0.0"),
    ("sampling", "coverage", "1.5", "<= 1, got 1.5"),
    ("tagging", "min_count", "0", ">= 1, got 0"),
    ("tagging", "dbscan_min_pts", "0", ">= 1, got 0"),
    ("tagging", "dbscan_eps", ".nan", "finite, got nan"),
    ("tagging", "dbscan_eps", "0", "> 0, got 0.0"),
    ("tagging", "min_support", "-3", ">= 1, got -3"),
    ("tagging", "min_support", "0", ">= 1, got 0"),
    ("tagging", "min_confidence", "5", "<= 1, got 5.0"),
    ("tagging", "min_confidence", "-1", ">= 0, got -1.0"),
    ("render", "max_chars", "-5", ">= 0, got -5"),
    ("layout", "nms_iou_threshold", ".inf", "finite, got inf"),
    ("layout", "row_tolerance_factor", "-1", ">= 0, got -1.0"),
]
_R1 = '{"record_id": "r1", "answers": ["a"]}'
# a JSON (and YAML) value nested deeper than the interpreter's recursion limit
DEEP = "[" * 100000 + "]" * 100000
_TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"

PROBES = [
    # usage and the dataset path
    Probe("unknown-flag", "render --bogus", "unrecognized arguments: --bogus", code=2,
          exact=False),
    Probe("no-command", "", "the following arguments are required: command", code=2,
          exact=False),
    Probe("dataset-missing", "render --dataset {root}/nope.jsonl --out {new}",
          "no record file at {root}/nope.jsonl"),
    Probe("dataset-a-directory", "render --dataset {data} --out {new}",
          "no record file at {data}"),
    Probe("pages-dir-missing", "pipeline --pages {root}/nopages " + NEW,
          "record references unknown page 'p0000': no page file {root}/nopages/p0000.json"),
    Probe("record-id-repeated", "pipeline " + NEW,
          "{records}, line 4: repeated record_id {rid!r} (first on line 1)",
          _repeat_record_id),
    Probe("record-id-not-a-string", "pipeline " + NEW,
          "{records}, line 3: missing or invalid field 'record_id'",
          lambda n: _put(n["records"], [*_lines(n["records"])[:2], '{"record_id": 5}',
                                        *_lines(n["records"])[3:]])),
    Probe("record-nested-too-deep", "pipeline " + NEW,
          f"{{records}}, line 3: not valid JSON ({_TOO_DEEP})",
          lambda n: _put(n["records"], [*_lines(n["records"])[:2], DEEP,
                                        *_lines(n["records"])[3:]])),
    # annotations one level past the bound, refused before any worker starts
    *(Probe(f"record-annotations-past-the-nesting-bound-cpus{cpus}", "pipeline " + NEW,
            "{records}, line 1: " + _invalid("annotations"),
            _first_record(annotations=nested_annotations(MAX_NESTING + 1)), cpus=cpus)
      for cpus in (1, 2)),
    Probe("record-question-lone-surrogate", "pipeline " + NEW,
          "{records}, line 1: holds the lone surrogate '\\ud800', which UTF-8 cannot encode",
          _first_record(question="\ud800 Which item appears first?")),
    # a page id names its page file, so it holds no path separator or newline
    *(Probe(f"record-page-id-{name}", "pipeline " + NEW,
            "{records}, line 2: missing or invalid field 'page_id'", _record_page_id(page_id))
      for name, page_id in (("outside-pages", "../outside"), ("with-newline", "p0000\n"))),
    # a sample request without its value, refused before any stage writes; sample
    # alone refuses it before it reads profiles, broken here
    *(Probe(f"{mode}-mode-without-its-value-{command}", f"{command} --mode {mode} {args}",
            f"{mode} mode requires {needs}", mutate)
      for mode, needs in (("budget", "a non-negative budget"),
                          ("coverage", "a finite, non-negative coverage_target, got None"))
      for command, args, mutate in (
          ("pipeline", NEW, lambda n: None),
          ("sample", ARGS, lambda n: n["art"]["profiles"].write_text("nonsense\n")))),
    *(Probe(f"max-inflight-{inflight}-{backend}",
            f"pipeline --backend {backend} --max-inflight {inflight} --cache-dir {{root}}/none "
            + NEW, f"generation.max_inflight must be >= 1, got {inflight}")
      for backend, inflight in (("mock", "0"), ("cache", "-1"))),
    *(Probe(f"{name}", CFG + " --cache-dir {root}/none --embed-cache-dir {root}/none" + argv,
            err, _write("cfg.yaml", config))
      for name, argv, config, err in (
          ("embedder-bogus", "", "tagging:\n  embedder: bogus\n",
           "tagging.embedder must be one of ('hashing', 'cache', 'remote'), got 'bogus'"),
          ("backend-bogus", "", "generation:\n  backend: bogus\n",
           "generation.backend must be one of ('mock', 'cache', 'remote'), got 'bogus'"),
          ("backend-remote-no-url", " --backend remote", "{}\n",
           "no backend URL (set PROCTAG_BACKEND_URL)"),
          ("embedder-remote-no-url", " --embedder remote", "{}\n",
           "no embedding URL (set PROCTAG_EMBED_URL)"))),
    Probe("embedder-remote-no-url-tag",
          "tag --embedder remote --embed-cache-dir {root}/none " + ARGS,
          "no embedding URL (set PROCTAG_EMBED_URL)",
          _drop_stages("tags_raw", "tags", "vocab", "profiles", "sample")),
    # a failed first row removes every directory it made, not only the last
    Probe("failed-first-row-in-new-parents", "render --dataset {records} --out {new}/a/b",
          f"{{root}}/{LAST_PAGE}: " + _invalid("width"),
          _edit_last_page(lambda page: page.__setitem__("width", "wide"))),
    Probe("generate-before-render", "generate --backend mock " + NEW,
          "no manifest in {new}; run earlier stages first"),
    # the manifest: corrupt, naming a path, or missing the stage a command reads
    *(Probe(f"manifest-{content}-{command}", f"{command}{style} " + ARGS,
            "manifest {manifest} " + err, _write("out/manifest.json", content))
      for command, style in (("assess", ""), ("render", " --style plaintext"))
      for content, err in (("nonsense", "is not valid JSON: Expecting value: line 1 column 1 "
                                        "(char 0)"), ("[1]", "is not an object of artifact names"),
                           ('{"render": 5}', "is not an object of artifact names"))),
    *(Probe(f"manifest-profiles-{name}-{command}", f"{command} " + ARGS,
            "manifest {manifest} is not an object of artifact names", _other_profiles(name))
      for command in ("sample", "assess")
      for name in ("", ".", "..", "{other}/profiles", "../other/profiles", "sub/profiles")),
    *(Probe(f"run-first-{row.name}",
            ("tag --stage " if row.name in ("extract", "normalize") else "")
            + f"{row.name} " + ARGS,
            f"stage {row.upstream!r} not in {{manifest}}; run it first",
            lambda n, up=row.upstream: _edit_manifest(n, **{up: None}))
      for row in cli.STAGES.values() if row.upstream),
    # malformed lines of the files a command reads
    *(Probe(f"not-utf8-{target}", argv, "{path}, line {line}: not UTF-8 ('utf-8' codec can't "
            "decode byte 0xff in position 0: invalid start byte)",
            _not_utf8(target))
      for target, argv in (("records", "pipeline " + NEW),
                           ("pred", "eval anls --pred {root}/pred.jsonl --gold {records}"),
                           ("tags_raw", "tag --stage normalize " + ARGS),
                           ("profiles", "assess " + ARGS))),
    # profiles: the four columns, each checked whole and against the ones before
    *(Probe(f"profiles-{name}-{command}", f"{command} " + ARGS, "{path}, " + err,
            _edit_profiles(edit))
      for command in ("sample", "assess")
      for name, err, edit in (
          ("index-past-vocab", "line 4: tag index {n_tags} of record {tagged!r} is not an "
           "integer in [0, {n_tags})", lambda c: c[3].__setitem__(0, len(c[0]))),
          ("index-a-bool", "line 4: tag index True of record {tagged!r} is not an integer in "
           "[0, {n_tags})", lambda c: c[3].__setitem__(0, True)),
          ("counts-not-adding-up", "line 4: {n_indices} tag indices for tag counts adding up "
           "to {total}", lambda c: c[2].__setitem__(0, c[2][0] + 1)),
          ("fewer-counts-than-ids", "line 3: {n_counts} tag counts for {n_ids} record ids",
           lambda c: c[2].pop()),
          ("negative-count", "line 3: tag count -1 of record {second!r} is not a non-negative "
           "integer", lambda c: c[2].__setitem__(1, -1)),
          ("repeated-record-id", "line 2: repeated record_id {second!r}",
           lambda c: c[1].__setitem__(2, c[1][1])),
          ("fifth-line", "line 5: a fifth line; profiles has four", lambda c: c.append([])))),
    *(Probe(f"repeated-{key}-{stage}", f"{argv} " + ARGS,
            f"{{path}}, line {{line}}: repeated {key} {{repeated!r}} (first on line {{first}})",
            _repeat_first_line(stage, key))
      for stage, argv, key in (("render", "generate", "page_id"),
                               ("generate", "tag --stage extract", "record_id"),
                               ("tags_raw", "tag --stage normalize", "record_id"))),
    *(Probe(f"malformed-{stage}-{name}", f"{_ARTIFACT_READERS[stage]} " + ARGS,
            "{path}, line 2: " + reason,
            _malformed_line(stage, keys, value))
      for stage, name, keys, value, reason in _MALFORMED_LINES),
    # eval
    *(Probe(f"tau-{tau}", f"{ANLS} --tau {tau}",
            f"tau must be a finite number in (0, 1], got {float(tau)!r}",
            _eval_files(['{"record_id": "r1", "predicted": "helo"}'],
                        ['{"record_id": "r1", "answers": ["hello"]}']))
      for tau in ("nan", "inf", "0", "-1", "1.5")),
    *(Probe(f"kappa-{matrix}", "eval kappa --matrix {root}/matrix.json",
            "matrix file {root}/matrix.json is not valid JSON: Expecting value: line 1 column 1 "
            "(char 0)" if matrix == "nonsense"
            else "{root}/matrix.json: confusion matrix counts must be finite numbers",
            _write("matrix.json", matrix))
      for matrix in ('[[1, "a"], [0, 1]]', "nonsense", "[[NaN, 1], [0, 1]]",
                     "[[true, false], [false, true]]")),
    Probe("anls-no-prediction", ANLS, "{root}/pred.jsonl: no prediction for record 'r1'",
          _eval_files([], [_R1])),
    Probe("anls-prediction-not-in-gold", ANLS,
          "{root}/pred.jsonl, line 2: record_id 'zz' is not in {root}/gold.jsonl",
          _eval_files(['{"record_id": "r1", "predicted": "a"}',
                       '{"record_id": "zz", "predicted": "b"}'], [_R1])),
    *(Probe(f"anls-{bad}-{name}", ANLS, f"{{root}}/{bad}.jsonl, line {len(lines)}: {reason}",
            _eval_files(lines if bad == "pred" else ['{"record_id": "r1", "predicted": "a"}',
                                                     '{"record_id": "r2", "predicted": "b"}'],
                        lines if bad == "gold" else [_R1]))
      for bad, name, lines, reason in (
          ("pred", "no-predicted", ['{"record_id": "r1"}'], "'predicted' must be a string"),
          ("pred", "predicted-null", ['{"record_id": "r1", "predicted": null}'],
           "'predicted' must be a string"),
          ("pred", "repeated-record-id", ['{"record_id": "r1", "predicted": "a"}',
                                          '{"record_id": "r1", "predicted": "b"}'],
           "repeated record_id 'r1' (first on line 1)"),
          ("pred", "no-record-id", ['{"record_id": "r1", "predicted": "a"}',
                                    '{"predicted": "b"}'], _invalid("record_id")),
          ("pred", "not-json", ['{"record_id": "r1", "predicted": "a"}', '{"record_id": '],
           "not valid JSON (Expecting value: line 2 column 1 (char 15))"),
          ("gold", "repeated-record-id", [_R1, _R1], "repeated record_id 'r1' (first on line 1)"),
          ("gold", "answers-a-string", [_R1, '{"record_id": "r2", "answers": "a"}'],
           "'answers' must be a non-empty list of strings"),
          ("gold", "answer-not-a-string", [_R1, '{"record_id": "r2", "answers": ["a", 1]}'],
           "'answers' must be a non-empty list of strings"),
          ("gold", "no-answers", [_R1, '{"record_id": "r2"}'],
           "'answers' must be a non-empty list of strings"))),
    # the completion cache and the page files, read in the worker processes
    Probe("replay-miss-in-a-worker", REPLAY, "in replay-only mode", _drop_every_4th_entry,
          cpus=2, exact=False, new=("render",)),
    *(Probe(f"cache-entry-{name}-cpus{cpus}", REPLAY, "cache entry {log}:{line} " + reason,
            _bad_cache_entry(entry), cpus=cpus, new=("render",) if entry[0] == "{" else None)
      for cpus in (1, 2)
      for name, entry, reason in (
          ("no-completion", '{"prompt": "x"}', "is not an object with a str 'completion'"),
          ("not-json", '{"prompt": ', "is not valid JSON: Expecting value: line 1 column 87 "
                                      "(char 86)"),
          ("wrong-type", '{"completion": 5}', "is not an object with a str 'completion'"),
          ("not-an-object", '["completion"]', "is not an object with a str 'completion'"),
          ("nested-too-deep", '{"prompt": ' + DEEP + "}", f"is not valid JSON: {_TOO_DEEP}"),
          ("surrogate-bytes", '{"completion": "\ud800"}', "is not valid JSON: 'utf-8' codec "
           "can't decode byte 0xed in position 91: invalid continuation byte"),
          ("surrogate-escape", '{"completion": "\\ud800"}',
           "holds the lone surrogate '\\ud800', which UTF-8 cannot encode"))),
    *(Probe(f"no-{what}-cache-{made}", f"{argv} {{root}}/c {args}",
            f"no {what} cache at {{root}}/c",
            (lambda n: (n["root"] / "c").mkdir()) if made == "empty" else lambda n: None)
      for what, argv, args in (("completion", "pipeline --backend cache --cache-dir", NEW),
                               ("embedding", "tag --embedder cache --embed-cache-dir", ARGS))
      for made in ("missing", "empty")),
    *(Probe(f"embedding-vector-{name}", "tag --stage normalize --embedder cache "
            "--embed-cache-dir {root}/ecache " + ARGS, "cache entry {path}:{line} has a "
            "'vector' that is not a non-empty list of finite numbers", _embedding_cache(edit))
      for name, edit in (("nan", lambda v: [math.nan, *v[1:]]),
                         ("inf", lambda v: [*v[:-1], math.inf]),
                         ("empty", lambda v: []), ("strings", lambda v: ["a"] * len(v)),
                         ("huge-int", lambda v: [10 ** 400, *v[1:]]))),
    *(Probe(f"page-not-json-cpus{cpus}", "pipeline " + NEW, f"page file {{root}}/{LAST_PAGE} "
            "is not valid JSON: Expecting value: line 1 column 13 (char 12)",
            _write(LAST_PAGE, '{"page_id": '), cpus=cpus)
      for cpus in (1, 2)),
    *(Probe(f"page-token-text-lone-surrogate-cpus{cpus}", "pipeline " + NEW,
            f"page file {{root}}/{LAST_PAGE} holds the lone surrogate '\\udc80', which UTF-8 "
            "cannot encode",
            _edit_last_page(lambda page: page["tokens"][0].__setitem__("text", "\udc80")),
            cpus=cpus)
      for cpus in (1, 2)),
    Probe("page-nested-too-deep", "pipeline " + NEW,
          f"page file {{root}}/{LAST_PAGE} is not valid JSON: {_TOO_DEEP}",
          _write(LAST_PAGE, DEEP)),
    *(Probe(f"page-{field}-wrong-type-cpus{cpus}", "pipeline " + NEW,
            f"{{root}}/{LAST_PAGE}: " + _invalid(f"{items}[0].{field}"),
            _edit_last_page(lambda page, items=items, field=field, value=value:
                            page[items][0].__setitem__(field, value)), cpus=cpus)
      for cpus in (1, 2)
      for items, field, value in (("tokens", "text", 5), ("regions", "score", "x"),
                                  ("regions", "kind", 7), ("tokens", "confidence", False))),
    *(Probe(f"page-file-naming-another-page-cpus{cpus}", "pipeline " + NEW,
            f"page file {{root}}/{LAST_PAGE} holds page_id 'p0000', not 'p0005'",
            _edit_last_page(lambda page: page.__setitem__("page_id", "p0000")), cpus=cpus)
      for cpus in (1, 2)),
    # a coordinate that no float or int can hold, under the styles it breaks
    *(Probe(f"page-{name}-{style}", f"pipeline --style {style} " + NEW, err,
            _edit_last_page(lambda page, value=value, k=k: (
                page.__setitem__("width", value), page["tokens"][0]["bbox"].__setitem__(k, value))))
      for name, value, k, err, styles in (
          ("infinite-width-and-x0", math.inf, 0, "cannot convert float infinity to integer",
           ("spatial", "doclayprompt")),
          ("huge-int-width-and-x1", 10 ** 400, 2, "int too large to convert to float",
           ("plaintext", "spatial", "doclayprompt")))
      for style in styles),
    Probe("generate-page-not-rendered", "generate --backend mock " + ARGS,
          "record references unknown page 'unrendered'", _record_on_unrendered_page),
    # config files and flags, refused before any stage writes
    Probe("config-not-utf8", CFG, "config {root}/cfg.yaml is not UTF-8: 'utf-8' codec can't "
          "decode byte 0xff in position 0: invalid start byte",
          _write("cfg.yaml", b"\xff\xfesampling: {}\n")),
    Probe("config-nested-too-deep", CFG,
          "config {root}/cfg.yaml is not valid YAML: maximum recursion depth exceeded",
          _write("cfg.yaml", DEEP), exact=False),
    Probe("config-section-names-mixed", CFG, "unknown config sections: [1, 'foo']",
          _write("cfg.yaml", "1: x\nfoo: y\n")),
    *(Probe(f"config-{section}-{key}-{value[:12]}", CFG, f"{section}.{key} must be {message}",
            _write("cfg.yaml", f"{section}:\n  {key}: {value}\n"))
      for section, key, value, message in _MISTYPED),
    *(Probe(f"{how}-{section}-{key}-{value}", argv, f"{section}.{key} must be {message}",
            mutate)
      for section, key, value, message in _OUT_OF_RANGE
      for how, argv, mutate in (
          ("config", CFG, _write("cfg.yaml", f"{section}:\n  {key}: {value}\n")),
          ("flag", f"pipeline --{key.replace('_', '-')} {value.lstrip('.')} " + NEW,
           lambda n: None))),
]


def _snapshot(root: Path) -> dict[str, str | None]:
    """Every path under ``root``: a file's SHA-256, None for a directory."""
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    write_dataset(make_dataset(seed=11, n_pages=6, records_per_page=3),
                  root / "data" / "records.jsonl")
    assert cli.run(["pipeline"] + ARGS.format(records=root / "data" / "records.jsonl",
                                              out=root / "out").split()) == 0
    cache = _fill_mock_cache(root / "data", tmp_path_factory.mktemp("fill"), "plaintext")
    shutil.move(cache, root / "cache")
    return root


def _prepared(tree: Path, tmp_path: Path, probe: Probe) -> tuple[dict[str, Any], list[str]]:
    """A mutated copy of the tree: its names, and the row's argv."""
    root = Path(shutil.copytree(tree, tmp_path / "root"))
    n = {"root": root, "data": root / "data", "records": root / "data" / "records.jsonl",
         "out": root / "out", "manifest": root / "out" / cli.MANIFEST, "new": root / "new",
         "cache": root / "cache", "log": root / "cache" / "entries.jsonl"}
    n["art"] = {stage: n["out"] / name for stage, name in
                json.loads(n["manifest"].read_text(encoding="utf-8")).items()}
    probe.mutate(n)
    return n, [word.format(**n) for word in probe.argv.split()]


def _check(probe: Probe, n: dict[str, Any], before: dict[str, str | None],
           code: int, out: str, err: str) -> None:
    assert code == probe.code, err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err.startswith("usage: "), err
    expected = probe.err.format(**n)
    if probe.exact:
        assert err == f"error: {expected}\n"
    else:
        assert expected in err
    after = _snapshot(n["root"])
    made = {path for path in after if path == "new" or path.startswith("new/")}
    assert {path: after[path] for path in after.keys() - made} == before
    if probe.new is None:
        assert not made
        assert out == ""
        return
    manifest = json.loads((n["new"] / cli.MANIFEST).read_text())
    assert sorted(manifest) == sorted(probe.new)
    assert made == {"new", "new/" + cli.MANIFEST, *(f"new/{name}" for name in manifest.values())}


@pytest.mark.parametrize("probe", PROBES, ids=lambda probe: probe.id)
def test_probe(tree, tmp_path, monkeypatch, capfd, probe):
    for name in ("PROCTAG_BACKEND_URL", "PROCTAG_EMBED_URL"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(cli, "CHUNK", 2)
    _cpus(monkeypatch, probe.cpus)
    n, argv = _prepared(tree, tmp_path, probe)
    before = _snapshot(n["root"])
    capfd.readouterr()
    code = cli.run(argv)
    out, err = capfd.readouterr()
    _check(probe, n, before, code, out, err)


def test_ids_are_unique():
    ids = [probe.id for probe in PROBES]
    assert len(ids) == len(set(ids))


def test_main_exits_through_sys_exit(tree, tmp_path):
    # the console script's path: main() passes run()'s code to sys.exit
    probe = next(probe for probe in PROBES if probe.id == "pages-dir-missing")
    n, argv = _prepared(tree, tmp_path, probe)
    before = _snapshot(n["root"])
    proc = subprocess.run([sys.executable, "-m", "proctag.cli", *argv], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    _check(probe, n, before, proc.returncode, proc.stdout, proc.stderr)
