from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import nested_annotations, write_config, write_stage
from proctag import cli, procgen, tagnorm, tagparse
from proctag.cli import run
from proctag.config import ConfigError, PipelineConfig, config_from_dict, load_config
from proctag.errors import ProcTagError
from proctag.ingest import (MAX_NESTING, InstructionRecord, MalformedLine, dumps_json,
                            load_dataset, read_jsonl, write_dataset)
from proctag.render import DocumentRepresentation, render_plaintext
from proctag.synth import make_dataset
from test_procgen import ScriptedBackend


def _dir_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def demo_dataset(tmp_path):
    ds = make_dataset(seed=11, n_pages=6, records_per_page=3)
    write_dataset(ds, tmp_path / "data" / "records.jsonl")
    return tmp_path / "data"


def _base_args(demo_dataset, out):
    return ["--dataset", str(demo_dataset / "records.jsonl"), "--out", str(out)]


def _read_values(path):
    return read_jsonl(path, lambda value: value)


def _fill_mock_cache(demo_dataset, tmp_path, style, inner=None, store=procgen.CachingBackend):
    """A completion cache filled by ``inner`` (default: the mock backend)
    through ``store`` over the dataset's renderings in ``style``, as a live
    backend would leave it."""
    out = tmp_path / "fill"
    assert run(["render", "--style", style] + _base_args(demo_dataset, out)) == 0
    reps = {rep.page_id: rep for rep in read_jsonl(cli._read_stage(out, "render"),
                                                   DocumentRepresentation.from_dict,
                                                   key="page_id")}
    cache = tmp_path / "cache"
    procgen.generate_all(load_dataset(demo_dataset / "records.jsonl").records, reps,
                         store(cache, inner=inner or procgen.MockBackend()),
                         procgen.GenerationLedger(), max_inflight=1)
    return cache


def _stagewise_and_chained(demo_dataset, tmp_path, style, gen_flags):
    """Directory digests of the stages run one by one and of ``pipeline``."""
    a = tmp_path / "stagewise"
    base = _base_args(demo_dataset, a)
    for argv in (["render", "--style", style], ["generate"] + gen_flags,
                 ["tag", "--stage", "extract"], ["tag", "--stage", "normalize"],
                 ["sample", "--mode", "ratio", "--ratio", "0.5"]):
        assert run(argv + base) == 0
    b = tmp_path / "chained"
    assert run(["pipeline", "--style", style, "--mode", "ratio", "--ratio", "0.5"]
               + gen_flags + _base_args(demo_dataset, b)) == 0
    return _dir_digests(a), _dir_digests(b)


class TestUsage:
    def test_help_exits_0(self):
        assert run(["--help"]) == 0


class TestStages:
    @pytest.mark.parametrize("style,backend", [("doclayprompt", "mock"),
                                               ("plaintext", "cache"), ("spatial", "mock")])
    def test_stagewise_equals_pipeline(self, demo_dataset, tmp_path, style, backend):
        gen_flags = ["--backend", backend]
        if backend == "cache":
            cache = _fill_mock_cache(demo_dataset, tmp_path, style)
            gen_flags += ["--cache-dir", str(cache)]
        da, db = _stagewise_and_chained(demo_dataset, tmp_path, style, gen_flags)
        assert da == db

    def test_line_separators_inside_strings(self, tmp_path):
        # canonical JSON leaves U+2028 and U+0085 unescaped; reading an
        # artifact back must not split a record at them
        ds = make_dataset(seed=11, n_pages=2, records_per_page=2)
        ds.records[0].question += " \u2028 next \x85 line"
        write_dataset(ds, tmp_path / "data" / "records.jsonl")
        da, db = _stagewise_and_chained(tmp_path / "data", tmp_path, "doclayprompt",
                                        ["--backend", "mock"])
        assert da == db

    def test_standalone_curate_commands_read_line_separators(self, tmp_path, capsys):
        # sample and assess read the tags artifact a line at a time; a record
        # whose id holds U+2028, U+0085 and an escaped carriage return must
        # come back whole and give what pipeline computed from memory
        ds = make_dataset(seed=11, n_pages=2, records_per_page=2)
        ds.records[0].record_id += " \u2028 next \x85 line \r end"
        write_dataset(ds, tmp_path / "data" / "records.jsonl")
        out = tmp_path / "out"
        base = _base_args(tmp_path / "data", out)
        sample_flags = ["--mode", "ratio", "--ratio", "1.0"]
        assert run(["pipeline", "--backend", "mock"] + sample_flags + base) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "\u2028" in (out / manifest["tags"]).read_text(encoding="utf-8")
        before = _dir_digests(out)
        assert run(["sample"] + sample_flags + base) == 0
        assert _dir_digests(out) == before
        assert run(["assess"] + base) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        sample = json.loads((out / manifest["sample"]).read_text(encoding="utf-8"))
        assessed = (out / manifest["assess"]).read_text(encoding="utf-8")
        assert assessed == cli.dumps_json(sample["assessment"]) + "\n"
        assert capsys.readouterr().out.strip().splitlines()[-1] == assessed.strip()

    def test_concurrent_stages_both_land_in_the_manifest(self, tmp_path, monkeypatch):
        # Each writer waits inside the manifest read-modify-write until the
        # other one arrives there too, or the barrier times out. Unlocked,
        # both arrive, both read an empty manifest and the last rename drops
        # the other stage. Locked, the second writer cannot enter until the
        # first has written, so the barrier times out and both stages land.
        barrier = threading.Barrier(2, timeout=2.0)
        real = cli.dumps_json

        def waiting(obj):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            return real(obj)

        monkeypatch.setattr(cli, "dumps_json", waiting)
        errors = []

        def write(stage):
            try:
                write_stage(tmp_path, stage, f"{stage}\n", "txt")
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(stage,)) for stage in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest) == ["a", "b"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["manifest.json"] + list(manifest.values()))

    def test_pipeline_loads_the_dataset_once(self, demo_dataset, tmp_path, monkeypatch):
        calls = []
        real = cli.load_records

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "load_records", counting)
        assert run(["pipeline", "--backend", "mock"]
                   + _base_args(demo_dataset, tmp_path / "out")) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("backend", ["mock", "cache"])
    def test_local_backends_run_without_the_thread_pool(self, demo_dataset, tmp_path,
                                                        monkeypatch, backend):
        gen_flags = ["--backend", backend, "--max-inflight", "4"]
        if backend == "cache":
            cache = _fill_mock_cache(demo_dataset, tmp_path, "doclayprompt")
            gen_flags += ["--cache-dir", str(cache)]

        def no_pool(*args, **kwargs):
            raise AssertionError("a local backend constructed the thread pool")

        monkeypatch.setattr(procgen, "ThreadPoolExecutor", no_pool)
        assert run(["pipeline"] + gen_flags
                   + _base_args(demo_dataset, tmp_path / "out")) == 0

    def test_rerun_reproduces_deleted_stage(self, demo_dataset, tmp_path):
        out = tmp_path / "out"
        base = _base_args(demo_dataset, out)
        assert run(["pipeline", "--backend", "mock"] + base) == 0
        before = _dir_digests(out)
        manifest = json.loads((out / "manifest.json").read_text())
        for stage in ("tags_raw", "tags", "vocab", "profiles", "sample"):
            (out / manifest[stage]).unlink()
        assert run(["tag", "--stage", "all"] + base) == 0
        assert run(["sample"] + base) == 0
        assert _dir_digests(out) == before

    def test_assess_reports_distinct_tags(self, demo_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        base = _base_args(demo_dataset, out)
        assert run(["pipeline", "--backend", "mock"] + base) == 0
        capsys.readouterr()
        assert run(["assess"] + base) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert list(report) == ["distinct_tags", "mean_distinct_tags_per_record",
                                "record_count"]
        assert report["record_count"] == 18
        assert report["distinct_tags"] > 0

    def test_sample_modes(self, demo_dataset, tmp_path):
        out = tmp_path / "out"
        base = _base_args(demo_dataset, out)
        assert run(["pipeline", "--backend", "mock"] + base) == 0
        for argv in (["sample", "--mode", "budget", "--budget", "5"],
                     ["sample", "--mode", "coverage", "--coverage", "0.8"],
                     ["sample", "--mode", "random", "--ratio", "0.25", "--seed", "3"]):
            assert run(argv + base) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        report = json.loads((out / manifest["sample"]).read_text())
        assert report["mode"] == "random" and report["count"] == 5  # ceil(18/4)


# each row that writes more than one artifact: a rerun of it whose output
# differs from pipeline's, and its artifacts in the order it writes them; the
# manifest is written after them. A failed row must keep a file it rewrote
# that existed before it started: generate's rerun, over one edited question,
# writes the ledger the manifest names, and normalize's writes a vocab that
# an earlier, superseded run left unnamed
_ROW_RERUNS = {
    "generate": (["generate", "--backend", "mock"], ("generate", "ledger")),
    "normalize": (["tag", "--stage", "normalize", "--min-support", "1", "--min-confidence", "0"],
                  ("tags", "vocab", "profiles")),
}


class TestRowCommit:
    """A row's artifacts reach the manifest in one update, and a row that
    fails leaves the output directory as it was."""

    @staticmethod
    def _finished(demo_dataset, out, row):
        """A finished pipeline directory, and the argv that reruns ``row`` over it."""
        assert run(["pipeline", "--backend", "mock"] + _base_args(demo_dataset, out)) == 0
        if row == "generate":
            records = demo_dataset / "records.jsonl"
            lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
            first = json.loads(lines[0])
            lines[0] = json.dumps({**first, "question": first["question"] + " Why?"}) + "\n"
            records.write_text("".join(lines), encoding="utf-8")
        else:
            earlier = shutil.copytree(out, out.parent / "earlier")
            assert run(_ROW_RERUNS[row][0] + _base_args(demo_dataset, earlier)) == 0
            vocab = json.loads((earlier / "manifest.json").read_text())["vocab"]
            shutil.copy(earlier / vocab, out / vocab)
        return _ROW_RERUNS[row][0] + _base_args(demo_dataset, out)

    @pytest.mark.parametrize("row, k", [("generate", k) for k in range(4)]
                             + [("normalize", k) for k in range(5)])
    def test_the_kth_write_failing_leaves_the_directory_as_it_was(
            self, demo_dataset, tmp_path, monkeypatch, capsys, row, k):
        # k = 0 fails no write: the rerun then writes each artifact and the
        # manifest once, and names a new artifact for each stage
        out = tmp_path / "out"
        argv = self._finished(demo_dataset, out, row)
        before = _dir_digests(out)
        manifest = json.loads((out / "manifest.json").read_text())
        stages = _ROW_RERUNS[row][1]
        calls = []
        real = cli.atomic_write_text

        def failing(path, *args, **kwargs):
            calls.append(path.name)
            if len(calls) == k:
                raise cli.IoFailure(f"cannot write {path}: injected")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(cli, "atomic_write_text", failing)
        capsys.readouterr()
        code = run(argv)
        monkeypatch.setattr(cli, "atomic_write_text", real)
        if not k:
            assert code == 0
            assert calls == [f"{stage}.{manifest[stage].rsplit('.', 1)[1]}"
                             for stage in stages] + ["manifest.json"]
            rerun = json.loads((out / "manifest.json").read_text())
            changed = [stage for stage in stages if rerun[stage] != manifest[stage]]
            assert changed == [stage for stage in stages if stage != "ledger"]
            return
        assert code == 1 and len(calls) == k
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert _dir_digests(out) == before
        # sample reads the old profiles: it writes the same report again
        assert run(["sample"] + _base_args(demo_dataset, out)) == 0
        assert _dir_digests(out) == before

    @pytest.mark.parametrize("b_support, a_fails", [("2", False), ("1", True)])
    def test_concurrent_normalize_runs_leave_one_runs_artifacts(
            self, demo_dataset, tmp_path, monkeypatch, b_support, a_fails):
        # run A writes its first artifact, then waits until run B has returned.
        # With other settings, the manifest must name one run's whole set; with
        # the same ones and A's commit failing, A must keep what B committed
        out = tmp_path / "out"
        self._finished(demo_dataset, out, "normalize")
        flags = {"a": ["--min-support", "1", "--min-confidence", "0"],
                 "b": ["--min-support", b_support, "--min-confidence", "0"]}
        stages = _ROW_RERUNS["normalize"][1]
        alone = {}
        for name, extra in flags.items():
            shutil.copytree(out, tmp_path / name)
            assert run(["tag", "--stage", "normalize", "--out", str(tmp_path / name)] + extra) == 0
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            alone[name] = {stage: manifest[stage] for stage in stages}
        assert all((alone["a"][stage] == alone["b"][stage]) == a_fails for stage in stages)

        paused, b_done = threading.Event(), threading.Event()
        real = cli.atomic_write_text

        def pausing(path, *args, **kwargs):
            if threading.current_thread().name == "a" and path.name == "vocab.json":
                paused.set()
                if not b_done.wait(30):
                    raise RuntimeError("run B did not return")
            if threading.current_thread().name == "a" and path.name == "manifest.json" and a_fails:
                raise cli.IoFailure(f"cannot write {path}: injected")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(cli, "atomic_write_text", pausing)
        codes, errors = {}, []

        def normalize(name):
            try:
                codes[name] = run(["tag", "--stage", "normalize", "--out", str(out)]
                                  + flags[name])
            except Exception as exc:
                errors.append(exc)

        a = threading.Thread(target=normalize, args=("a",), name="a")
        b = threading.Thread(target=normalize, args=("b",), name="b")
        a.start()
        assert paused.wait(30)
        b.start()
        b.join(30)
        b_done.set()
        a.join(30)
        assert not a.is_alive() and not b.is_alive()
        assert not errors and codes == {"a": int(a_fails), "b": 0}
        manifest = json.loads((out / "manifest.json").read_text())
        assert {stage: manifest[stage] for stage in stages} in alone.values()
        assert all((out / manifest[stage]).exists() for stage in stages)

    def test_a_file_another_rows_rollback_deleted_fails_the_commit(self, tmp_path):
        # row A starts, row B writes a file, A writes the same bytes (so the
        # same name) and fails: A's rollback deletes the file B is about to
        # name in the manifest, so B's commit must fail naming it
        out = tmp_path / "out"
        out.mkdir()
        a_started, b_wrote, a_done = threading.Event(), threading.Event(), threading.Event()
        errors, written = {}, []

        def row_a():
            try:
                with cli._row_writer(out) as write:
                    a_started.set()
                    assert b_wrote.wait(30)
                    write("a", "same\n", "txt")
                    raise RuntimeError("row A fails")
            except Exception as exc:
                errors["a"] = exc
            finally:
                a_done.set()

        def row_b():
            try:
                assert a_started.wait(30)
                with cli._row_writer(out) as write:
                    written.append(write("a", "same\n", "txt"))
                    b_wrote.set()
                    assert a_done.wait(30)
            except Exception as exc:
                errors["b"] = exc

        threads = [threading.Thread(target=row_a), threading.Thread(target=row_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert str(errors["a"]) == "row A fails"
        assert type(errors.get("b")) is cli.IoFailure
        assert str(errors["b"]) == (f"stage artifact {written[0]} was deleted before the "
                                    "manifest named it")
        assert os.listdir(out) == []

    def test_a_failed_commit_prints_no_summary(self, demo_dataset, tmp_path, monkeypatch,
                                               capsys):
        # the rollback deletes the artifacts, so no line may name them
        argv = self._finished(demo_dataset, tmp_path / "out", "normalize")
        before = _dir_digests(tmp_path / "out")
        real = cli.atomic_write_text

        def failing(path, *args, **kwargs):
            if path.name == "manifest.json":
                raise cli.IoFailure(f"cannot write {path}: injected")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(cli, "atomic_write_text", failing)
        capsys.readouterr()
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert "->" not in captured.out
        assert captured.err.startswith("error: cannot write ")
        assert _dir_digests(tmp_path / "out") == before


# function names as a backend writes them; the last three normalize to nothing
_FUNCTION_NAMES = ("find_total", "findTotal", "read_row", "scan_list", "pick_entry",
                   "sum_cells", "get_2nd_value", "__", "123", "")


@st.composite
def _generate_lines(draw):
    """Generate-artifact lines: processes (some with no steps, or only names
    that normalize to nothing), and discards with and without a parseable
    last completion."""
    names = st.sampled_from(_FUNCTION_NAMES)
    lines = []
    for i in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["process", "process", "process", "discarded"]))
        ann = {"representation": {"style": "plaintext", "digest": "0" * 16, "token_count": 3}}
        if kind == "process":
            steps = [{"index": k, "output_var": f"r{k}", "function_name": name,
                      "args": ["doc"]}
                     for k, name in enumerate(draw(st.lists(names, max_size=6)), start=1)]
            ann["process"] = {"cot": ["1. look"], "steps": steps, "final_answer": "x",
                              "attempts": draw(st.integers(1, 3))}
        else:
            completion = draw(st.none() | st.just("no pseudo-code here") | st.lists(names).map(
                lambda ns: "\n".join(f"{n}(doc)" for n in ns)))
            ann["discarded"] = {"reason": "no pseudo-code block", "attempts": 3,
                                "last_completion": completion}
        lines.append({"record_id": f"r{i:03d}" + draw(st.sampled_from(["", "\u2028", " é"])),
                      "page_id": "p0", "question": draw(st.text(max_size=20)),
                      "answers": ["a"], "annotations": ann})
    return lines


def _process_lines(names: list[list[str]]) -> list[dict]:
    """Generate-artifact lines of processes whose steps call ``names[k]`` in turn."""
    return [{"record_id": f"r{k:03d}", "page_id": "p0", "question": "q", "answers": ["a"],
             "annotations": {"process": {
                 "cot": [], "final_answer": "x", "attempts": 1,
                 "steps": [{"index": i, "output_var": f"v{i}", "function_name": name,
                            "args": ["doc"]} for i, name in enumerate(step_names, start=1)]}}}
            for k, step_names in enumerate(names)]


def _tags_only(objs):
    """What the slim tag artifacts keep of a record: its id and its tags."""
    return [{"record_id": obj["record_id"], "annotations": {"tags": obj["annotations"]["tags"]}}
            for obj in objs]


# strings JSON must escape or must leave alone: quotes, backslashes, control
# characters, U+2028 / U+2029, non-ASCII and astral characters
_awkward_text = st.text(st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u2028", "\u2029",
                                         "é", "\U0001f600", "a", "_"]), max_size=5) | st.text()


class TestSlimTagArtifacts:
    """``tags_raw`` and ``tags`` hold only ``record_id`` and the tags, built
    from profiles; they equal what the full-record writers wrote, projected
    to those fields, and the vocabulary is byte-identical."""

    @settings(max_examples=60, deadline=None)
    # a cutoff of 10 empties the records whose tags are all rarer: r010 and r011
    @example(lines=_process_lines([["find_total", "sum_cells"]] * 10
                                  + [["read_row"], ["read_row", "pick_entry"], []]),
             min_count=10, eps=0.015, min_support=40, min_confidence=0.99)
    @given(lines=_generate_lines(), min_count=st.none() | st.integers(1, 3),
           eps=st.sampled_from([0.015, 0.3]), min_support=st.sampled_from([1, 2, 40]),
           min_confidence=st.sampled_from([0.5, 0.99]))
    def test_equal_to_full_record_writers(self, lines, min_count, eps, min_support,
                                          min_confidence):
        cfg = PipelineConfig()
        cfg.tagging.min_count = min_count
        cfg.tagging.dbscan_eps = eps
        cfg.tagging.min_support = min_support
        cfg.tagging.min_confidence = min_confidence
        flags = ["--dbscan-eps", str(eps), "--min-support", str(min_support),
                 "--min-confidence", str(min_confidence)]
        if min_count is not None:
            flags += ["--min-count", str(min_count)]
        with tempfile.TemporaryDirectory() as tmp:
            old, chained, standalone = (Path(tmp) / name for name in ("old", "chained", "cmd"))
            tagged = oracles.extract_stage_full_records(lines, old)
            old_profiles, old_vocab = oracles.normalize_stage_full_records(
                tagged, tagnorm.HashingEmbedder(), cfg, old)
            # in memory, as pipeline chains the stages
            raw = [cli._raw_profile(*cli._generated(obj)) for obj in lines]
            with cli._row_writer(chained) as write:
                cli.extract_stage(raw, cfg, write)
            with cli._row_writer(chained) as write:
                profiles, _ = cli.normalize_stage(raw, cfg, write, tagnorm.HashingEmbedder())
            vocab = json.loads(cli._read_stage(chained, "vocab").read_text(encoding="utf-8"))
            # standalone commands over a generate artifact
            write_stage(standalone, "generate", cli._jsonl(lines), "jsonl")
            assert run(["tag", "--stage", "extract", "--out", str(standalone)]) == 0
            assert run(["tag", "--stage", "normalize", "--out", str(standalone)] + flags) == 0

            assert [(p.record_id, p.tags, p.source) for p in profiles] == [
                (p.record_id, p.tags, p.source) for p in old_profiles]
            assert vocab == json.loads(dumps_json(old_vocab))
            for stage in ("tags_raw", "tags"):
                expected = _tags_only(_read_values(cli._read_stage(old, stage)))
                assert list(_read_values(cli._read_stage(chained, stage))) == expected
            manifests = [json.loads((d / "manifest.json").read_text())
                         for d in (chained, standalone)]
            assert manifests[0] == {k: v for k, v in manifests[1].items() if k != "generate"}
            assert json.loads((old / "manifest.json").read_text())["vocab"] == manifests[0]["vocab"]

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
        _awkward_text, st.sampled_from(["grammar", "fallback", "none"]),
        # each stage's list is new or the one before it again; the tags line
        # derives emptied_by_filter from the raw and filtered lists
        st.lists(st.none() | st.lists(_awkward_text, max_size=4), min_size=4, max_size=4)),
        max_size=6))
    def test_tag_lines_equal_their_canonical_json(self, rows):
        raw, filtered, clustered, aggregated = [], [], [], []
        for record_id, source, lists in rows:
            tags, stages = [], []
            for new in lists:
                tags = list(tags if new is None else new)
                stages.append(tags)
            raw.append(tagnorm.TagProfile(record_id, stages[0], source))
            for stage, tags in zip((filtered, clustered, aggregated), stages[1:]):
                stage.append(tags)
        expected_raw = "".join(
            dumps_json(oracles.tags_line_reference(p.record_id,
                                                   {"raw": p.tags, "source": p.source})) + "\n"
            for p in raw)
        expected = "".join(
            dumps_json(oracles.tags_line_reference(r.record_id, {
                "raw": r.tags, "source": r.source, "filtered": f,
                "clustered": c, "aggregated": a,
                "emptied_by_filter": bool(r.tags) and not f})) + "\n"
            for r, f, c, a in zip(raw, filtered, clustered, aggregated))
        assert "".join(cli._tags_lines(raw)) == expected_raw
        assert "".join(cli._tags_lines(raw, filtered, clustered, aggregated)) == expected

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.tuples(
        st.sampled_from(["", " ", "\t", "\u2028"]),
        st.recursive(st.none() | st.booleans() | st.integers() | _awkward_text,
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(_awkward_text, inner, max_size=3), max_leaves=6),
        # written as this package writes, with other spacing, garbage or none
        st.sampled_from(["\n", " \n", "\r\n", "\u2028\n", "x\n", ",\n", "", "blank"])),
        max_size=5))
    def test_jsonl_reader_equals_json_loads_per_line(self, tmp_path_factory, lines):
        text = "".join(" \n" if end == "blank" else lead + dumps_json(value) + end
                       for lead, value, end in lines)
        path = tmp_path_factory.mktemp("jsonl") / "stage.jsonl"
        path.write_text(text, encoding="utf-8", newline="")

        def outcome(reader):
            got = []
            try:
                got.extend(reader(path))
            except (ValueError, cli.IoFailure) as exc:
                return got, exc
            return got, None

        got, error = outcome(_read_values)
        expected, expected_error = outcome(oracles.read_jsonl_reference)
        assert got == expected
        if expected_error is None:
            assert error is None
        else:
            # the reference fails on the first non-blank line after those it read
            line_no = [k for k, line in enumerate(text.split("\n"), start=1)
                       if line.strip()][len(got)]
            assert type(error) is MalformedLine
            assert type(error.__cause__) is type(expected_error)
            assert str(error) == f"{path}, line {line_no}: not valid JSON ({expected_error})"

    def test_normalize_peak_does_not_grow_with_record_fields(self, tmp_path):
        # tag --stage normalize keeps each tags_raw line's profile only, so
        # a 2 KB question on every line must not raise its traced peak
        import numpy  # noqa: F401  (the first embed imports it; keep that out of the peaks)

        vocab = [f"{verb}_{noun}" for verb in ("find", "read", "sum", "count")
                 for noun in ("row", "cell", "total", "date", "name")]

        def peak(question_chars, name):
            rng = random.Random(5)
            out = tmp_path / name
            write_stage(out, "tags_raw", cli._jsonl(
                {"record_id": f"r{i:05d}", "page_id": "p0", "question": "q" * question_chars,
                 "answers": ["a"],
                 "annotations": {"tags": {"raw": rng.sample(vocab, 4), "source": "grammar"}}}
                for i in range(2000)), "jsonl")
            tracemalloc.start()
            try:
                assert run(["tag", "--stage", "normalize", "--out", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(0, "warm-up")
        bare, padded = peak(0, "bare"), peak(2048, "padded")
        # the decoded questions alone would add 2000 * 2 KB = 4 MB
        assert padded < bare + (1 << 20), (bare, padded)

    def test_a_merge_that_normalizes_to_nothing_is_skipped(self, tmp_path):
        # the pair qualifies at the default thresholds, but "__" merged with
        # "a_1" is "___1", whose normal form is empty
        write_stage(tmp_path, "tags_raw", cli._jsonl(
            {"record_id": f"r{i:02d}", "annotations": {"tags": {"raw": ["__", "a_1"],
                                                                "source": "grammar"}}}
            for i in range(50)), "jsonl")
        assert run(["tag", "--stage", "normalize", "--out", str(tmp_path)]) == 0
        vocab = json.loads(cli._read_stage(tmp_path, "vocab").read_text(encoding="utf-8"))
        assert vocab["merges"] == []

    def test_sampling_curves_reads_line_separators(self, tmp_path):
        ds = make_dataset(seed=11, n_pages=4, records_per_page=5)
        ds.records[0].record_id += "\u2028"
        write_dataset(ds, tmp_path / "data" / "records.jsonl")
        out = tmp_path / "out"
        assert run(["pipeline", "--backend", "mock"] + _base_args(tmp_path / "data", out)) == 0
        assert _sampling_curves(out).startswith("20 records\n")

    def test_sampling_curves_over_profiles_without_a_tag(self, tmp_path):
        write_stage(tmp_path, "profiles", cli._profiles_lines(
            [tagnorm.TagProfile(f"r{i}", []) for i in range(5)]), "jsonl")
        assert _sampling_curves(tmp_path).splitlines()[-1].split() == ["100%", "0.000", "0.000"]


def _sampling_curves(out: Path) -> str:
    """The standard output of ``scripts/sampling_curves.py`` over ``out``,
    which must exit 0."""
    script = Path(__file__).parents[1] / "scripts" / "sampling_curves.py"
    proc = subprocess.run([sys.executable, str(script), "--out", str(out), "--seeds", "2"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def rows_of(profiles):
    return [(p.record_id, p.tags) for p in profiles]


_MALFORMED_PROFILES = [
    # (file content, line named by the error)
    ("", 1),
    ("not json\n", 1),
    ('{"a": 1}\n', 1),
    ('["a", 1]\n', 1),
    ('"a"\n', 1),
    ('["a"] ["b"]\n', 1),
    ('["a", "b"]\n{"r": [0]}\n', 2),
    ('["a", "b"]\n["r"]\n', 2),
    ('["a", "b"]\n["r", [0], 1]\n', 2),
    ('["a", "b"]\n[1, [0]]\n', 2),
    ('["a", "b"]\n["r", 0]\n', 2),
    ('["a", "b"]\n["r", [0.0]]\n', 2),
    ('["a", "b"]\n["r", ["0"]]\n', 2),
    ('["a", "b"]\n["r", [null]]\n', 2),
    ('["a", "b"]\n["r", [true]]\n', 2),
    ('["a", "b"]\n["r", [0, false]]\n', 2),
    ('["a", "b"]\n["r", [-1]]\n', 2),
    ('["a", "b"]\n["r", [2]]\n', 2),
    ('[]\n["r", [0]]\n', 2),
    ('["a", "b"]\n["r", [1, 0]]\n["s", []]\n["t", [0, 5]]\n', 4),
    ('\n \n', 1),
]

_PROFILES_READ_BACK = [
    # (file content, the (record_id, tags) it reads back to): a blank line is
    # skipped, and a line padded with whitespace or ending in "\r\n" is read,
    # as in every other line file
    ('["a", "b"]\n\n', []),
    ('\n["a", "b"]\n \n["r", [1, 0]]\n\n', [("r", ["b", "a"])]),
    (' ["a"] \r\n["r", [0]]\r\n', [("r", ["a"])]),
]

_NOT_JSON = "not valid JSON (Expecting value: line 1 column 1 (char 0))"
_PROFILES_ERRORS_CHANGED = [
    # (file content, the error after the file name, the chunked reader's in
    # oracles, which took only one canonical JSON value a line and decoded a
    # chunk of lines before it checked any)
    ('["a"] ["b"]\n', "line 1: not valid JSON (Extra data: line 1 column 7 (char 6))",
     "line 1: not one JSON value"),
    ('["a"]\n["r", [5]]\nnot json\n',
     "line 2: not [record_id, [tag index, ...]] with every index in [0, 1)",
     f"line 3: {_NOT_JSON}"),
    ('["a"]\n\n["r", [0]]\n["r", [0]]\n', "line 4: repeated record_id 'r' (first on line 3)",
     f"line 2: {_NOT_JSON}"),
]

_profile_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | _awkward_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_awkward_text, inner, max_size=2),
    max_leaves=5)


@st.composite
def _profiles_files(draw) -> bytes:
    """A ``profiles`` file without blank lines: a vocabulary line and up to
    12 rows whose record ids repeat, at most one line of which is not a
    well-formed row (or vocabulary): any JSON value, a row with a bad
    index, a canonical list cut short, text that is not JSON or not UTF-8."""
    vocab = draw(st.lists(st.sampled_from(["a", "b", "\u2028", "é", ""]), max_size=4,
                          unique=True))
    ids = st.sampled_from(["r", "s", "t", "\u2028", "u" * 40])
    indices = st.lists(st.integers(0, len(vocab) - 1), max_size=4) if vocab else st.just([])
    lines = [dumps_json(vocab)] + [dumps_json([rid, index_list]) for rid, index_list in
                                   draw(st.lists(st.tuples(ids, indices), max_size=12))]
    encoded = [line.encode("utf-8") for line in lines]
    if draw(st.integers(0, 3)):
        bad_index = st.sampled_from([-1, len(vocab), True, False, 0.0, "0", None])
        bad_row = st.tuples(ids, indices, bad_index).map(
            lambda row: dumps_json([row[0], row[1] + [row[2]]]))
        cut = st.lists(_profile_values, min_size=1).map(dumps_json).flatmap(
            lambda text: st.integers(1, len(text) - 1).map(lambda k: text[:k]))
        bad = draw(st.one_of(
            bad_row, bad_row, _profile_values.map(dumps_json),
            st.sampled_from(['["r"]', '["r", [0], 1]', '[1, [0]]', '["r", 0]', "not json"]),
            cut)).encode("utf-8")
        bad = draw(st.sampled_from([bad, bad, bad, b"\xff" + bad]))
        encoded[draw(st.integers(0, len(encoded) - 1))] = bad
    return b"\n".join(encoded) + draw(st.sampled_from([b"\n", b""]))


class TestProfilesArtifact:
    """``profiles`` holds the aggregated profiles as a vocabulary line and
    one ``[record_id, [tag indices]]`` line per record; sample and assess
    read it instead of ``tags``."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(_awkward_text, st.lists(
        st.sampled_from(["t", "\"", "\\", "\x00", "\u2028", "\U0001f600", "é", ""])
        | _awkward_text, max_size=6)), max_size=8, unique_by=lambda row: row[0]))
    def test_lines_equal_their_canonical_json_and_read_back(self, tmp_path_factory, rows):
        # tags repeat within and across profiles, and profiles may be empty;
        # record ids do not repeat, since the reader rejects a repeated one
        profiles = [tagnorm.TagProfile(rid, tags) for rid, tags in rows]
        vocab: list[str] = []
        for p in profiles:
            vocab.extend(tag for tag in p.tags if tag not in vocab)
        expected = [dumps_json(vocab)] + [
            dumps_json([p.record_id, [vocab.index(tag) for tag in p.tags]]) for p in profiles]
        text = "".join(cli._profiles_lines(profiles))
        assert text == "".join(line + "\n" for line in expected)
        path = tmp_path_factory.mktemp("profiles") / "profiles.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        assert rows_of(cli.read_profiles(path)) == rows_of(profiles)

    def test_rows_past_the_first_chunk(self, tmp_path):
        rng = random.Random(7)
        profiles = [tagnorm.TagProfile(f"r{i}", rng.sample("abcdefg", rng.randint(0, 3)))
                    for i in range(2 * cli.CHUNK + 5)]
        path = tmp_path / "profiles.jsonl"
        path.write_text("".join(cli._profiles_lines(profiles)), encoding="utf-8")
        assert rows_of(cli.read_profiles(path)) == rows_of(profiles)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[cli.CHUNK + 7] = '["r", [-1]]'
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(cli.IoFailure, match=f", line {cli.CHUNK + 8}: "):
            cli.read_profiles(path)

    def test_repeated_record_id_past_the_first_chunk(self, tmp_path):
        profiles = [tagnorm.TagProfile(f"r{i}", ["a"]) for i in range(2 * cli.CHUNK + 5)]
        profiles[cli.CHUNK + 7].record_id = "r3"  # row k is on line k + 2
        path = tmp_path / "profiles.jsonl"
        path.write_text("".join(cli._profiles_lines(profiles)), encoding="utf-8")
        with pytest.raises(cli.IoFailure) as exc:
            cli.read_profiles(path)
        assert str(exc.value) == (f"{path}, line {cli.CHUNK + 9}: "
                                  "repeated record_id 'r3' (first on line 5)")

    def test_reader_equals_the_aggregated_stage_of_tags(self, tmp_path):
        ds = make_dataset(seed=11, n_pages=6, records_per_page=3)
        ds.records[0].record_id += "\u2028"
        write_dataset(ds, tmp_path / "data" / "records.jsonl")
        out = tmp_path / "out"
        assert run(["pipeline", "--backend", "mock", "--min-count", "3"]
                   + _base_args(tmp_path / "data", out)) == 0
        from_tags = list(read_jsonl(cli._read_stage(out, "tags"), oracles.profile_from_tags))
        assert any(not p.tags for p in from_tags) and any(p.tags for p in from_tags)
        profiles = cli.read_profiles(cli._read_stage(out, "profiles"))
        assert rows_of(profiles) == rows_of(from_tags)

    @pytest.mark.parametrize("content, line_no", _MALFORMED_PROFILES)
    def test_malformed_file_is_an_io_failure_naming_the_line(self, tmp_path, content, line_no):
        path = tmp_path / "profiles-x.jsonl"
        path.write_text(content, encoding="utf-8", newline="")
        with pytest.raises(cli.IoFailure, match=f"^{re.escape(str(path))}, line {line_no}: "):
            cli.read_profiles(path)

    @pytest.mark.parametrize("content, rows", _PROFILES_READ_BACK)
    def test_blank_and_padded_lines_read_back(self, tmp_path, content, rows):
        path = tmp_path / "profiles-x.jsonl"
        path.write_text(content, encoding="utf-8", newline="")
        assert [(p.record_id, p.tags) for p in cli.read_profiles(path)] == rows

    @pytest.mark.parametrize("content, reason, chunked_reason", _PROFILES_ERRORS_CHANGED)
    def test_errors_that_differ_from_the_chunked_reader(self, tmp_path, content, reason,
                                                        chunked_reason):
        path = tmp_path / "profiles-x.jsonl"
        path.write_text(content, encoding="utf-8", newline="")
        for read, expected in ((cli.read_profiles, reason),
                               (oracles.read_profiles, chunked_reason)):
            with pytest.raises(MalformedLine) as exc:
                read(path)
            assert str(exc.value) == f"{path}, {expected}"

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=_profiles_files())
    def test_same_profiles_or_error_as_the_chunked_reader(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("profiles") / "profiles-x.jsonl"
        path.write_bytes(content)
        try:
            expected = rows_of(oracles.read_profiles(path))
        except MalformedLine as exc:
            with pytest.raises(MalformedLine) as got:
                cli.read_profiles(path)
            assert (str(got.value), got.value.line_no) == (str(exc), exc.line_no)
        else:
            assert rows_of(cli.read_profiles(path)) == expected


# input annotation keys: before, between and after "process" and
# "representation", and the two outcome keys a line replaces
_INPUT_KEYS = st.sampled_from(["a", "pages", "process", "q", "representation", "source",
                               "zz", "discarded", "\u2028", "é"])
_json_values = st.recursive(st.none() | st.booleans() | st.integers() | _awkward_text,
                            lambda inner: st.lists(inner, max_size=2)
                            | st.dictionaries(_awkward_text, inner, max_size=2), max_leaves=4)
_processes = st.builds(
    procgen.ExecutionProcess,
    cot=st.lists(_awkward_text, max_size=3),
    steps=st.lists(st.tuples(_awkward_text, _awkward_text, st.lists(_awkward_text, max_size=3)),
                   max_size=4).map(lambda steps: [
                       tagparse.ProcessStep(k, var, name, args)
                       for k, (var, name, args) in enumerate(steps, start=1)]),
    final_answer=st.none() | _awkward_text, attempts=st.integers(1, 3))
_discards = st.builds(procgen.Discarded, record_id=_awkward_text, reason=_awkward_text,
                      attempts=st.integers(1, 3), last_completion=st.none() | _awkward_text)


class TestGenerateLines:
    @settings(max_examples=300, deadline=None)
    @given(reps=st.lists(st.builds(DocumentRepresentation, page_id=st.just(""),
                                   style=_awkward_text, text=_awkward_text,
                                   char_cell_width=st.just(8.0),
                                   token_count=st.integers(0, 10**6)),
                         min_size=1, max_size=3),
           rows=st.lists(st.tuples(
               st.integers(0, 2), _awkward_text, _awkward_text, st.lists(_awkward_text, max_size=3),
               st.just({}) | st.dictionaries(_INPUT_KEYS, _json_values, max_size=3),
               _processes | _processes | _discards), max_size=6))
    def test_lines_equal_their_canonical_json(self, reps, rows):
        # pages repeat across records, so a block encoded once per page is reused
        by_page = {f"p{k}\u2028\"{k}": dataclasses.replace(rep, page_id=f"p{k}\u2028\"{k}")
                   for k, rep in enumerate(reps)}
        pages = list(by_page)
        pairs = [(InstructionRecord(record_id=rid, page_id=pages[k % len(pages)],
                                    question=question, answers=answers, annotations=ann),
                  result)
                 for k, rid, question, answers, ann, result in rows]
        expected = "".join(
            dumps_json(oracles.generate_line_reference(rec, by_page[rec.page_id], result)) + "\n"
            for rec, result in pairs)
        text, outcomes = cli._encode_generated(pairs, by_page)
        assert text == expected
        # each outcome is a tuple of which the parent builds the raw profile
        assert [(discarded, attempts, tagnorm.TagProfile(rid, tags, source))
                for discarded, attempts, rid, tags, source in outcomes] == [
            (isinstance(result, procgen.Discarded), result.attempts,
             cli._raw_profile(rec.record_id, result)) for rec, result in pairs]
        # each line reads back as its process, or as its discard under the line's record_id
        for line, (rec, result) in zip(text.split("\n")[:-1], pairs, strict=True):
            assert cli._generated(json.loads(line)) == (rec.record_id, dataclasses.replace(
                result, record_id=rec.record_id) if isinstance(result, procgen.Discarded)
                else result)


class TestEval:
    def test_anls_subcommand(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        pred.write_text('{"record_id": "r1", "predicted": "helo"}\n', encoding="utf-8")
        gold.write_text('{"record_id": "r1", "answers": ["hello"]}\n', encoding="utf-8")
        assert run(["eval", "anls", "--pred", str(pred), "--gold", str(gold)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["anls"] == pytest.approx(0.8)
        assert report["count"] == 1
        # tau is a cutoff in (0, 1], its upper end included
        assert run(["eval", "anls", "--pred", str(pred), "--gold", str(gold),
                    "--tau", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"anls": 0.8, "count": 1, "tau": 1.0}

    def test_anls_scores_the_generated_answers(self, demo_dataset, tmp_path, capsys):
        # each generated process's final answer is a prediction, "" for a discard
        out = tmp_path / "out"
        assert run(["pipeline"] + _base_args(demo_dataset, out)) == 0
        pred = tmp_path / "pred.jsonl"
        pred.write_text("".join(cli._jsonl(
            {"record_id": obj["record_id"],
             "predicted": obj["annotations"].get("process", {}).get("final_answer") or ""}
            for obj in _read_values(cli._read_stage(out, "generate")))), encoding="utf-8")
        capsys.readouterr()
        assert run(["eval", "anls", "--pred", str(pred),
                    "--gold", str(demo_dataset / "records.jsonl")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 18 and 0 <= report["anls"] <= 1

    def test_kappa_subcommand(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text("[[20, 5], [10, 15]]", encoding="utf-8")
        assert run(["eval", "kappa", "--matrix", str(matrix)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kappa"] == pytest.approx(0.4)
        assert report["band"] == "fair"


@pytest.fixture
def chat_hits(monkeypatch):
    """A local chat-completion endpoint that answers each prompt as the mock
    backend would; yields the list its requests append to."""
    hits = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            hits.append(1)
            completion = procgen.MockBackend().complete(body["messages"][0]["content"])
            data = json.dumps({"choices": [{"message": {"content": completion}}]}
                              ).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.setenv("PROCTAG_BACKEND_URL",
                       f"http://127.0.0.1:{server.server_address[1]}/chat")
    try:
        yield hits
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)


class _StubSession:
    """A requests session whose every POST answers as a chat endpoint would
    with the mock backend's completion, or with no code fence for a prompt
    that holds ``unparsed``; no request leaves the process."""

    def __init__(self, unparsed: str):
        self.unparsed = unparsed

    def post(self, url, json, headers, timeout):
        prompt = json["messages"][0]["content"]
        content = ("no code fence" if self.unparsed in prompt
                   else procgen.MockBackend().complete(prompt))
        reply = {"choices": [{"message": {"content": content}}]}
        return type("Reply", (), {"status_code": 200, "json": lambda self: reply})()


def test_remote_generate_counts_each_outcome_once(tmp_path, monkeypatch):
    counted = []
    for name in ("record_success", "record_discard"):
        count = getattr(procgen.GenerationLedger, name)
        monkeypatch.setattr(procgen.GenerationLedger, name,
                            lambda self, rid, attempts, count=count: (
                                counted.append(rid), count(self, rid, attempts)))
    rep = DocumentRepresentation("p1", "plaintext", "Total 12", 8.0, 2)
    records = [InstructionRecord(f"r{k}", "p1", question) for k, question in
               enumerate(("What is the total?", "Which row is unparsed?", "Who signed?"), 1)]
    cfg = PipelineConfig()
    cfg.generation.backend = "remote"
    cfg.generation.max_inflight = 2
    backend = procgen.RemoteBackend(url="http://stub/chat", session=_StubSession("unparsed"))
    with cli._row_writer(tmp_path) as write:
        profiles, _ = cli.generate_stage((records, {"p1": rep}), cfg, write, backend)
    assert [p.record_id for p in profiles] == ["r1", "r2", "r3"]
    assert sorted(counted) == ["r1", "r2", "r3"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert (tmp_path / manifest["ledger"]).read_bytes() == (
        b'{"attempts_by_record": {"r1": 1, "r2": 3, "r3": 1}, "discarded": 1, '
        b'"succeeded": 2, "total": 3}\n')


class TestCacheReplay:
    def test_remote_populates_cache_then_replay_is_offline(self, demo_dataset,
                                                           tmp_path, chat_hits):
        out = tmp_path / "out"
        base = _base_args(demo_dataset, out)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert run(["render"] + base) == 0
        assert run(["generate", "--backend", "remote", "--max-inflight", "1"]
                   + base + cache) == 0
        live_calls = len(chat_hits)
        assert live_calls == 18  # one per record
        manifest = json.loads((out / "manifest.json").read_text())
        first = (out / manifest["generate"]).read_bytes()
        # replay from cache only: no further live calls, identical bytes
        assert run(["generate", "--backend", "cache"] + base + cache) == 0
        assert len(chat_hits) == live_calls
        assert (out / manifest["generate"]).read_bytes() == first

    def test_remote_writes_the_same_bytes_at_any_max_inflight(self, demo_dataset,
                                                              tmp_path, chat_hits,
                                                              monkeypatch):
        pools = []

        class CountingPool(procgen.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(procgen, "ThreadPoolExecutor", CountingPool)
        digests = {}
        for inflight in ("1", "2"):
            out = tmp_path / f"out{inflight}"
            base = _base_args(demo_dataset, out)
            assert run(["render"] + base) == 0
            assert run(["generate", "--backend", "remote", "--max-inflight", inflight,
                        "--cache-dir", str(tmp_path / f"cache{inflight}")] + base) == 0
            digests[inflight] = _dir_digests(out)
        assert digests["1"] == digests["2"]
        assert pools == [2]  # remote calls overlap only when asked to
        assert len(chat_hits) == 2 * 18


def _cpus(monkeypatch, n):
    """Let the CLI see ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class _FallbackDiscards:
    """Answers a third of the prompts (by hash) with call sites but no code
    fence, so the record is discarded and its tags come from the fallback
    scanner; a third with plain text (discarded, no tags); the rest as the
    mock backend."""

    def complete(self, prompt, params=None, attempt=1):
        kind = hashlib.sha256(prompt.encode("utf-8")).digest()[0] % 3
        if kind == 0:
            return "1. Look it up.\nscanList(document) then pick_entry(r1, 'total')\n"
        if kind == 1:
            return "no pseudo-code here"
        return procgen.MockBackend().complete(prompt)


# style, backend, inner backend that filled the replay cache
_POOL_CASES = {
    "mock-doclayprompt": ("doclayprompt", "mock", None),
    "cache-plaintext": ("plaintext", "cache", procgen.MockBackend),
    "cache-discards": ("plaintext", "cache", _FallbackDiscards),
}


class TestChunkedPool:
    """render and the mock / cache generate run their chunks on every CPU;
    the artifacts are those of a single-CPU run."""

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("case", sorted(_POOL_CASES))
    def test_every_artifact_equals_a_single_cpu_run(self, demo_dataset, tmp_path,
                                                    monkeypatch, case, chunk):
        style, backend, inner = _POOL_CASES[case]
        argv = ["pipeline", "--style", style, "--backend", backend,
                "--mode", "ratio", "--ratio", "0.5"]
        if inner is not None:
            argv += ["--cache-dir", str(_fill_mock_cache(demo_dataset, tmp_path, style,
                                                         inner=inner()))]
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(cli, "CHUNK", chunk)
        digests, pools_started = {}, {}
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            stdout = tmp_path / f"stdout{cpus}.txt"
            # a file, not a terminal: stdout is block-buffered, and a forked
            # worker holding unflushed lines would print them again
            with open(stdout, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                assert run(argv + _base_args(demo_dataset, out)) == 0
            lines = stdout.read_text(encoding="utf-8").splitlines()
            assert [line.split()[0] for line in lines] == [
                "rendered", "generated", "extracted", "normalized", "selected"]
            digests[cpus] = _dir_digests(out)
            pools_started[cpus] = len(pools)
            pools.clear()
        assert digests[1] == digests[2]
        # 6 pages and 18 records: render has one chunk of 7, generate several
        assert pools_started == {1: 0, 2: 1 if chunk == 7 else 2}
        if case == "cache-discards":
            tags_raw = cli._read_stage(tmp_path / "cpus2", "tags_raw")
            sources = {obj["annotations"]["tags"]["source"] for obj in _read_values(tags_raw)}
            assert sources == {"grammar", "fallback", "none"}

    def test_annotations_nested_at_the_bound_run_on_every_cpu_setting(
            self, demo_dataset, tmp_path, monkeypatch):
        # a forked worker encodes on a deeper stack than this process
        records = demo_dataset / "records.jsonl"
        lines = records.read_text(encoding="utf-8").splitlines()
        annotations = nested_annotations(MAX_NESTING)
        lines[0] = json.dumps(dict(json.loads(lines[0]), annotations=annotations))
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setattr(cli, "CHUNK", 3)
        manifests = {}
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            assert run(["pipeline"] + _base_args(demo_dataset, out)) == 0
            manifests[cpus] = (out / "manifest.json").read_bytes()
        assert manifests[1] == manifests[2]
        first = next(_read_values(cli._read_stage(tmp_path / "cpus2", "generate")))
        assert first["annotations"]["x"] == annotations["x"]

    @pytest.mark.parametrize("cpus,chunk,threaded", [(1, 1, False), (2, cli.CHUNK, False),
                                                     (2, 1, True)],
                             ids=["one-cpu", "one-chunk", "other-thread"])
    def test_no_pool_with_one_cpu_one_chunk_or_another_thread(
            self, demo_dataset, tmp_path, monkeypatch, cpus, chunk, threaded):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(cli, "CHUNK", chunk)
        _cpus(monkeypatch, cpus)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        if threaded:
            other.start()
        try:
            assert run(["pipeline", "--backend", "mock"]
                       + _base_args(demo_dataset, tmp_path / "out")) == 0
        finally:
            release.set()
            if threaded:
                other.join()

    @staticmethod
    def _assert_failed_generate(out, capfd):
        err = capfd.readouterr().err
        lines = [line for line in err.splitlines() if line.strip()]
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        manifest = json.loads((out / "manifest.json").read_text())
        assert "render" in manifest and "generate" not in manifest
        assert not list(out.glob("*.tmp"))
        return err

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_replay_of_a_cache_keyed_by_the_old_code_equals_a_mock_run(
            self, tmp_path, monkeypatch, cpus):
        ds = make_dataset(seed=11, n_pages=6, records_per_page=3)
        for k, rec in enumerate(ds.records):
            rec.question += ["", " naïve “quotes”", " \u2028 \"x\"\\", " \U0001f600 ü"][k % 4]
        write_dataset(ds, tmp_path / "data" / "records.jsonl")
        data = tmp_path / "data"
        cache = _fill_mock_cache(data, tmp_path, "plaintext")
        # the keys are those the old per-file cache gave the same prompts
        old = _fill_mock_cache(data, tmp_path / "old", "plaintext", store=oracles.CachingBackend)
        log = (cache / "entries.jsonl").read_bytes()
        keys = [line[9:73].decode() for line in log.splitlines()]
        assert sorted(keys) == sorted(path.name[:-len(".json")] for path in old.iterdir())
        monkeypatch.setattr(cli, "CHUNK", 3)
        _cpus(monkeypatch, cpus)
        generated = {}
        for backend in ("mock", "cache"):
            out = tmp_path / backend
            assert run(["pipeline", "--style", "plaintext", "--backend", backend,
                        "--cache-dir", str(cache)] + _base_args(data, out)) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            generated[backend] = (out / manifest["generate"]).read_bytes()
        assert generated["cache"] == generated["mock"]
        assert "naïve “quotes”".encode("utf-8") in generated["cache"]

    def test_standalone_generate_reads_no_page_file(self, demo_dataset, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "CHUNK", 3)
        _cpus(monkeypatch, 2)
        generated = {}
        for name in ("with-pages", "without-pages"):
            out = tmp_path / name
            assert run(["render"] + _base_args(demo_dataset, out)) == 0
            if name == "without-pages":
                shutil.rmtree(demo_dataset / "pages")
            assert run(["generate", "--backend", "mock"] + _base_args(demo_dataset, out)) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            generated[name] = (manifest["generate"], (out / manifest["generate"]).read_bytes())
        assert generated["with-pages"] == generated["without-pages"]

    def test_killed_worker_exits_1_without_hanging(self, demo_dataset, tmp_path,
                                                   monkeypatch, capfd):
        parent = os.getpid()
        complete = procgen.MockBackend.complete

        def dying(self, prompt, temperature=0.0, attempt=1):
            if os.getpid() != parent:
                os._exit(3)
            return complete(self, prompt, temperature, attempt)

        def hung(signum, frame):
            raise TimeoutError("the pipeline hung after a worker died")

        monkeypatch.setattr(procgen.MockBackend, "complete", dying)
        monkeypatch.setattr(cli, "CHUNK", 3)
        _cpus(monkeypatch, 2)
        capfd.readouterr()
        out = tmp_path / "out"
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            code = run(["pipeline", "--backend", "mock"] + _base_args(demo_dataset, out))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1
        err = self._assert_failed_generate(out, capfd)
        assert "terminated abruptly" in err


# Every config key and the type its values take ("?": None is allowed too),
# written out independently of the dataclasses.
KEY_TYPES = {
    "paths.dataset": "str", "paths.pages": "str?", "paths.output_dir": "str",
    "paths.gen_cache_dir": "str", "paths.embed_cache_dir": "str",
    "layout.nms_iou_threshold": "float", "layout.row_tolerance_factor": "float",
    "render.style": "str", "render.max_chars": "int?",
    "generation.backend": "str", "generation.max_inflight": "int",
    "generation.temperature": "float", "generation.model": "str",
    "tagging.min_count": "int?", "tagging.dbscan_eps": "float",
    "tagging.dbscan_min_pts": "int", "tagging.min_support": "int",
    "tagging.min_confidence": "float", "tagging.embedder": "str",
    "sampling.mode": "str", "sampling.budget": "int?", "sampling.ratio": "float?",
    "sampling.coverage": "float?", "sampling.seed": "int",
}
CHOICES = {
    "render.style": ("plaintext", "spatial", "doclayprompt"),
    "generation.backend": ("mock", "cache", "remote"),
    "tagging.embedder": ("hashing", "cache", "remote"),
    "sampling.mode": ("budget", "ratio", "coverage", "random"),
}

# Values outside the range each bounded key takes, which its stage would
# refuse only after earlier stages wrote.
OUT_OF_RANGE = {
    "layout.nms_iou_threshold": st.floats(max_value=0) | st.floats(min_value=1, exclude_min=True),
    "layout.row_tolerance_factor": st.floats(max_value=0, exclude_max=True),
    "render.max_chars": st.integers(max_value=-1),
    "generation.max_inflight": st.integers(max_value=0),
    "tagging.min_count": st.integers(max_value=0),
    "tagging.dbscan_eps": st.floats(max_value=0),
    "tagging.dbscan_min_pts": st.integers(max_value=0),
    "tagging.min_support": st.integers(max_value=0),
    "tagging.min_confidence": (st.floats(max_value=0, exclude_max=True)
                               | st.floats(min_value=1, exclude_min=True)),
    "sampling.budget": st.integers(max_value=-1),
    "sampling.ratio": st.floats(max_value=0) | st.floats(min_value=1, exclude_min=True),
    "sampling.coverage": (st.floats(max_value=0, exclude_max=True)
                          | st.floats(min_value=1, exclude_min=True)),
}

_scalar = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()


def _wrong_values(name: str) -> st.SearchStrategy:
    """Values key ``name`` must refuse: a bool, a list, a dict, None where
    it is not allowed, a str for a number, a float for an int, a number for
    a str, a str outside the choices, a non-finite float, and a number
    outside the key's range."""
    kind = KEY_TYPES[name]
    wrong = [st.booleans(), st.lists(_scalar, max_size=3),
             st.dictionaries(st.text(max_size=4), _scalar, min_size=1, max_size=2)]
    if not kind.endswith("?"):
        wrong.append(st.none())
    if kind.startswith(("int", "float")):
        wrong.append(st.text())
    if kind.startswith("int"):
        wrong.append(st.floats(allow_nan=False))
    if kind.startswith("str"):
        wrong.append(st.integers() | st.floats(allow_nan=False))
    if kind.startswith("float"):
        wrong.append(st.sampled_from([math.nan, math.inf, -math.inf]))
    if name in CHOICES:
        wrong.append(st.text().filter(lambda v: v not in CHOICES[name]))
    if name in OUT_OF_RANGE:
        wrong.append(OUT_OF_RANGE[name])
    return st.one_of(wrong)


# build_parser()'s flags per subcommand before they were derived from the
# config dataclasses: (option strings, dest, type, choices, default, help)
_COMMON_FLAGS = [
    (("--config",), "config", None, None, None, "YAML config file"),
    (("--dataset",), "dataset", None, None, None, "record file (JSONL)"),
    (("--pages",), "pages", None, None, None, "pages directory"),
    (("--out",), "out", None, None, None, "output directory for stage artifacts"),
]
_RENDER_FLAGS = [
    (("--style",), "style", None, ("plaintext", "spatial", "doclayprompt"), None, None),
    (("--max-chars",), "max_chars", int, None, None, None),
    (("--nms-iou-threshold",), "nms_iou_threshold", float, None, None, None),
    (("--row-tolerance-factor",), "row_tolerance_factor", float, None, None, None),
]
_GENERATE_FLAGS = [
    (("--backend",), "backend", None, ("mock", "cache", "remote"), None, None),
    (("--max-inflight",), "max_inflight", int, None, None, None),
    (("--cache-dir",), "cache_dir", None, None, None, None),
    (("--temperature",), "temperature", float, None, None, None),
    (("--model",), "model", None, None, None, "model name sent to the remote backend"),
]
_TAG_FLAGS = [
    (("--min-count",), "min_count", int, None, None, None),
    (("--dbscan-eps",), "dbscan_eps", float, None, None, None),
    (("--dbscan-min-pts",), "dbscan_min_pts", int, None, None, None),
    (("--min-support",), "min_support", int, None, None, None),
    (("--min-confidence",), "min_confidence", float, None, None, None),
    (("--embedder",), "embedder", None, ("hashing", "cache", "remote"), None, None),
    (("--embed-cache-dir",), "embed_cache_dir", None, None, None, None),
]
_SAMPLE_FLAGS = [
    (("--mode",), "mode", None, ("budget", "ratio", "coverage", "random"), None, None),
    (("--budget",), "budget", int, None, None, None),
    (("--ratio",), "ratio", float, None, None, None),
    (("--coverage",), "coverage", float, None, None, None),
    (("--seed",), "seed", int, None, None, None),
]
FLAG_SURFACE = {
    "render": _COMMON_FLAGS + _RENDER_FLAGS,
    "generate": _COMMON_FLAGS + _GENERATE_FLAGS,
    "tag": _COMMON_FLAGS + _TAG_FLAGS
    + [(("--stage",), "stage", None, ("extract", "normalize", "all"), "all", None)],
    "sample": _COMMON_FLAGS + _SAMPLE_FLAGS,
    "assess": _COMMON_FLAGS,
    "pipeline": _COMMON_FLAGS + _RENDER_FLAGS + _GENERATE_FLAGS + _TAG_FLAGS + _SAMPLE_FLAGS,
}


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = PipelineConfig()
        cfg.tagging.min_support = 17
        cfg.sampling.mode = "coverage"
        cfg.sampling.coverage = 0.9
        write_config(cfg, tmp_path / "cfg.yaml")
        assert load_config(tmp_path / "cfg.yaml") == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception):
            config_from_dict({"tagging": {"bogus_key": 1}})
        with pytest.raises(ConfigError, match="unknown config sections"):
            config_from_dict({1: "x", "foo": "y"})

    def test_every_config_key_has_a_flag(self):
        keys = {(section.name, f.name)
                for section in dataclasses.fields(PipelineConfig)
                for f in dataclasses.fields(getattr(PipelineConfig(), section.name))}
        assert keys <= set(cli.CONFIG_FLAGS.values())
        args = cli.build_parser().parse_args(["pipeline"])
        assert all(hasattr(args, dest) for dest in cli.CONFIG_FLAGS)

    def test_flag_surface_is_unchanged(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {name: sorted((tuple(a.option_strings), a.dest, a.type,
                             tuple(a.choices) if a.choices else None, a.default, a.help)
                            for a in p._actions if not isinstance(a, argparse._HelpAction))
               for name, p in sub.choices.items() if name != "eval"}
        assert got == {name: sorted(flags) for name, flags in FLAG_SURFACE.items()}

    def test_key_table_covers_every_config_key(self):
        assert set(KEY_TYPES) == {f"{section}.{key}"
                                  for section, key in cli.CONFIG_FLAGS.values()}

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_wrongly_typed_values_exit_1_before_any_stage_writes(
            self, demo_dataset, tmp_path, capsys, data):
        name = data.draw(st.sampled_from(sorted(KEY_TYPES)), label="key")
        value = data.draw(_wrong_values(name), label="value")
        section, key = name.split(".")
        text = yaml.safe_dump({section: {key: value}})
        loaded = yaml.safe_load(text)
        # NaN equals nothing, itself included; its repr still round-trips
        assume(loaded == {section: {key: value}} or repr(loaded) == repr({section: {key: value}}))
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(["pipeline", "--config", str(cfg)] + _base_args(demo_dataset, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(KEY_TYPES))
    def test_well_typed_values_accepted(self, name):
        section, key = name.split(".")
        kind = KEY_TYPES[name]
        values = list(CHOICES.get(name, {"str": ["some/dir"], "int": [3], "float": [1, 0.25]}
                                  [kind.rstrip("?")]))
        if kind.endswith("?"):
            values.append(None)
        for value in values:
            got = getattr(getattr(config_from_dict({section: {key: value}}), section), key)
            assert got == value
            if kind.startswith("float") and value is not None:
                assert type(got) is float  # an int is widened

    def test_int_for_a_float_field_runs(self, demo_dataset, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("sampling:\n  ratio: 1\ngeneration:\n  temperature: 0\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run(["pipeline", "--config", str(cfg)] + _base_args(demo_dataset, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert json.loads((out / manifest["sample"]).read_text())["count"] == 18

    def test_flags_override_config(self, demo_dataset, tmp_path, capsys):
        cfg = PipelineConfig()
        cfg.paths.dataset = str(demo_dataset / "records.jsonl")
        cfg.paths.output_dir = str(tmp_path / "out_a")
        write_config(cfg, tmp_path / "cfg.yaml")
        assert run(["render", "--config", str(tmp_path / "cfg.yaml"),
                    "--out", str(tmp_path / "out_b")]) == 0
        assert not (tmp_path / "out_a").exists()
        assert (tmp_path / "out_b" / "manifest.json").exists()


def _cyclic_garbage(fn) -> int:
    """Run ``fn`` with automatic collection paused; return how many objects
    ``gc.collect()`` then finds in unreachable cycles."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class _HalfParseable:
    """Answers every other prompt (by its hash) with an unparseable text."""

    def complete(self, prompt, params=None, attempt=1):
        if hashlib.sha256(prompt.encode("utf-8")).digest()[0] % 2:
            return "no pseudo-code here"
        return procgen.MockBackend().complete(prompt)


class TestCollectorPause:
    """``run`` pauses automatic cyclic collection, so no command may leave
    cyclic garbage that grows with the number of records."""

    @pytest.mark.parametrize("make_backend", [
        procgen.MockBackend,
        lambda: ScriptedBackend(failures=3),
        lambda: ScriptedBackend(failures=2, transport=True),
    ], ids=["mock", "unparseable", "transport-flaky"])
    def test_generate_all_leaves_no_per_record_cycles(self, make_backend):
        def garbage(n_pages):
            backend = make_backend()
            ds = make_dataset(seed=5, n_pages=n_pages, records_per_page=4)
            reps = {pid: render_plaintext(page) for pid, page in ds.pages.items()}

            def generate():
                procgen.generate_all(ds.records, reps, backend, procgen.GenerationLedger(),
                                     max_inflight=1)

            return _cyclic_garbage(generate)

        assert garbage(50) <= garbage(5)

    @pytest.mark.parametrize("backend", ["mock", "cache"])
    def test_pipeline_leaves_no_per_record_cycles(self, tmp_path, backend):
        def garbage(n_pages):
            root = tmp_path / str(n_pages)
            ds = make_dataset(seed=5, n_pages=n_pages, records_per_page=4)
            write_dataset(ds, root / "data" / "records.jsonl")
            argv = ["pipeline", "--style", "plaintext", "--backend", backend]
            if backend == "cache":
                # half the records are discarded after three unparseable answers
                cache = _fill_mock_cache(root / "data", root, "plaintext",
                                         inner=_HalfParseable())
                argv += ["--cache-dir", str(cache)]
            argv += _base_args(root / "data", root / "out")

            def pipeline():
                assert run(argv) == 0

            return _cyclic_garbage(pipeline)

        assert garbage(50) <= garbage(5)

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome", [0, 1], ids=["exit-0", "exit-1"])
    def test_run_pauses_collection_and_restores_it(self, monkeypatch, tmp_path,
                                                   enabled, outcome):
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            if outcome:
                raise ProcTagError("bad input")
            return 0

        monkeypatch.setattr(cli, "cmd_eval", command)
        matrix = tmp_path / "matrix.json"
        matrix.write_text("[[1, 0], [0, 1]]", encoding="utf-8")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = run(["eval", "kappa", "--matrix", str(matrix)])
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert code == outcome
        assert seen == [False]
        assert after is enabled


def test_pipeline_runs_under_cprofile(tmp_path):
    # the pool pickles its worker function by module; under `python -m
    # cProfile -m proctag.cli` the __main__ module is the profiler. 300
    # records make two generate chunks, so with two or more CPUs the pool runs
    write_dataset(make_dataset(seed=11, n_pages=30, records_per_page=10),
                  tmp_path / "data" / "records.jsonl")
    argv = ["pipeline"] + _base_args(tmp_path / "data", tmp_path / "profiled")
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(tmp_path / "p.prof"),
                           "-m", "proctag.cli"] + argv, capture_output=True, text=True,
                          env={**os.environ,
                               "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert run(["pipeline"] + _base_args(tmp_path / "data", tmp_path / "plain")) == 0
    assert (tmp_path / "profiled" / cli.MANIFEST).read_bytes() \
        == (tmp_path / "plain" / cli.MANIFEST).read_bytes()


def test_importing_the_cli_leaves_requests_unloaded():
    code = ("import sys, proctag.cli\n"
            "for name in ('requests', 'numpy', 'yaml'):\n"
            "    assert name not in sys.modules, f'{name} was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ,
                               "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_one_cpu_render_leaves_numpy_and_statistics_unloaded(demo_dataset, tmp_path):
    # the render kernels are plain Python: a render worker imports neither
    argv = ["render", "--style", "doclayprompt"] + _base_args(demo_dataset, tmp_path)
    code = ("import os, sys\n"
            "from proctag import cli\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            f"assert cli.run({argv!r}) == 0\n"
            "for name in ('numpy', 'statistics'):\n"
            "    assert name not in sys.modules, f'{name} was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ,
                               "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


# The artifact names (content digests) that render, in each style, and a
# mock generate write for a seeded synthetic dataset. Every step is plain
# Python, so the bytes, and with them the names, are the same on every
# supported Python; a change to any of them changes an artifact.
PINNED_RENDERS = {"plaintext": "render-aa3136f544f0.jsonl",
                  "spatial": "render-b2d67129fb83.jsonl",
                  "doclayprompt": "render-8b60ca7c096c.jsonl"}
PINNED_GENERATE = {"generate": "generate-b5a8645227cc.jsonl",
                   "ledger": "ledger-2d1e194f14e3.json",
                   "render": "render-8b60ca7c096c.jsonl"}


def test_render_and_generate_write_the_pinned_artifacts(tmp_path, monkeypatch):
    write_dataset(make_dataset(seed=18, n_pages=40, records_per_page=2),
                  tmp_path / "data" / "records.jsonl")
    _cpus(monkeypatch, 1)
    names = {}
    for style in PINNED_RENDERS:
        out = tmp_path / style
        assert run(["render", "--style", style] + _base_args(tmp_path / "data", out)) == 0
        names[style] = json.loads((out / cli.MANIFEST).read_text(encoding="utf-8"))["render"]
    assert names == PINNED_RENDERS
    out = tmp_path / "doclayprompt"
    assert run(["generate", "--backend", "mock"] + _base_args(tmp_path / "data", out)) == 0
    assert json.loads((out / cli.MANIFEST).read_text(encoding="utf-8")) == PINNED_GENERATE
