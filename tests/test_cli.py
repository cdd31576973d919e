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
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from proctag import cli, procgen, tagnorm
from proctag.cli import run
from proctag.config import (ConfigError, PipelineConfig, config_from_dict,
                            dump_config, load_config)
from proctag.errors import ProcTagError
from proctag.ingest import load_dataset, write_dataset
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


def _fill_mock_cache(demo_dataset, tmp_path, style, inner=None):
    """A completion cache filled by ``inner`` (default: the mock backend)
    over the dataset's renderings in ``style``, as a live backend would
    leave it."""
    out = tmp_path / "fill"
    assert run(["render", "--style", style] + _base_args(demo_dataset, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    reps = {obj["page_id"]: DocumentRepresentation.from_dict(obj)
            for obj in map(json.loads, (out / manifest["render"]).read_text().splitlines())}
    cache = tmp_path / "cache"
    procgen.generate_all(load_dataset(demo_dataset / "records.jsonl").records, reps,
                         procgen.CachingBackend(cache, inner=inner or procgen.MockBackend()),
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
    def test_unknown_flag_exits_2(self, capsys):
        assert run(["render", "--bogus"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_command_exits_2(self):
        assert run([]) == 2

    def test_help_exits_0(self):
        assert run(["--help"]) == 0

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        code = run(["render", "--dataset", str(tmp_path / "nope.jsonl"),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestRenderStandalone:
    def test_one_representation_per_page(self, demo_dataset, tmp_path):
        out = tmp_path / "reps"
        code = run(["render", "--style", "doclayprompt",
                    "--in", str(demo_dataset / "pages"), "--out", str(out)])
        assert code == 0
        reps = sorted(out.glob("*.json"))
        assert len(reps) == 6
        payload = json.loads(reps[0].read_text(encoding="utf-8"))
        assert payload["style"] == "doclayprompt"
        assert payload["text"]

    @pytest.mark.parametrize("style", ["plaintext", "spatial"])
    def test_other_styles(self, demo_dataset, tmp_path, style):
        out = tmp_path / f"reps_{style}"
        assert run(["render", "--style", style,
                    "--in", str(demo_dataset / "pages"), "--out", str(out)]) == 0
        assert len(list(out.glob("*.json"))) == 6


class TestStages:
    @pytest.mark.parametrize("style,backend", [("doclayprompt", "mock"),
                                               ("plaintext", "cache")])
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
                cli._write_stage(tmp_path, stage, f"{stage}\n", "txt")
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
        real = cli.load_dataset

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", counting)
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

    @pytest.mark.parametrize("backend,inflight", [("mock", "0"), ("cache", "-1")])
    def test_bad_max_inflight_rejected_before_any_stage_writes(
            self, demo_dataset, tmp_path, capsys, backend, inflight):
        out = tmp_path / "out"
        code = run(["pipeline", "--backend", backend, "--max-inflight", inflight,
                    "--cache-dir", str(tmp_path / "cache")] + _base_args(demo_dataset, out))
        assert code == 1
        assert "max_inflight" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,config", [
        ([], "tagging:\n  embedder: bogus\n"),
        ([], "generation:\n  backend: bogus\n"),
        (["--backend", "remote"], ""),
        (["--embedder", "remote"], ""),
    ], ids=["embedder-bogus", "backend-bogus", "backend-remote-no-url",
            "embedder-remote-no-url"])
    def test_bad_backend_or_embedder_rejected_before_any_stage_writes(
            self, demo_dataset, tmp_path, monkeypatch, capsys, argv, config):
        monkeypatch.delenv("PROCTAG_BACKEND_URL", raising=False)
        monkeypatch.delenv("PROCTAG_EMBED_URL", raising=False)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config or "{}\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run(["pipeline", "--config", str(cfg), "--cache-dir", str(tmp_path / "cache"),
                    "--embed-cache-dir", str(tmp_path / "ecache")]
                   + argv + _base_args(demo_dataset, out))
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_record_id_rejected_before_any_stage_writes(self, tmp_path, capsys):
        ds = make_dataset(seed=11, n_pages=2, records_per_page=2)
        ds.records[3].record_id = ds.records[0].record_id
        write_dataset(ds, tmp_path / "data" / "records.jsonl")
        out = tmp_path / "out"
        code = run(["pipeline", "--backend", "mock"] + _base_args(tmp_path / "data", out))
        assert code == 1
        err = capsys.readouterr().err
        assert f"line 4: duplicate record_id {ds.records[0].record_id!r} (first on line 1)" in err
        assert not out.exists()

    def test_non_integer_max_inflight_in_config_rejected(self, demo_dataset, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("generation:\n  max_inflight: two\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["pipeline", "--config", str(cfg)] + _base_args(demo_dataset, out)) == 1
        assert not out.exists()

    def test_rerun_reproduces_deleted_stage(self, demo_dataset, tmp_path):
        out = tmp_path / "out"
        base = _base_args(demo_dataset, out)
        assert run(["pipeline", "--backend", "mock"] + base) == 0
        before = _dir_digests(out)
        manifest = json.loads((out / "manifest.json").read_text())
        for stage in ("tags_raw", "tags", "vocab", "sample"):
            (out / manifest[stage]).unlink()
        assert run(["tag", "--stage", "all"] + base) == 0
        assert run(["sample"] + base) == 0
        assert _dir_digests(out) == before

    def test_generate_requires_render_first(self, demo_dataset, tmp_path):
        code = run(["generate", "--backend", "mock"]
                   + _base_args(demo_dataset, tmp_path / "out"))
        assert code == 1

    def test_assess_reports_complexity(self, demo_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        base = _base_args(demo_dataset, out)
        assert run(["pipeline", "--backend", "mock"] + base) == 0
        capsys.readouterr()
        assert run(["assess"] + base) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["record_count"] == 18
        assert report["complexity"] > 0

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


# function names as a backend writes them; the last three normalize to nothing
_FUNCTION_NAMES = ("find_total", "findTotal", "read_row", "scan_list", "pick_entry",
                   "sum_cells", "get_2nd_value", "__", "123", "")


@st.composite
def _generate_lines(draw):
    """Generate-artifact lines: processes (some with no steps, or only names
    that normalize to nothing), discards with and without a parseable last
    completion, and a line that carries neither."""
    names = st.sampled_from(_FUNCTION_NAMES)
    lines = []
    for i in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["process", "process", "process", "discarded", "neither"]))
        ann = {"representation": {"style": "plaintext", "digest": "0" * 16, "token_count": 3}}
        if kind == "process":
            steps = [{"index": k, "output_var": f"r{k}", "function_name": name,
                      "args": ["doc"]}
                     for k, name in enumerate(draw(st.lists(names, max_size=6)), start=1)]
            ann["process"] = {"cot": ["1. look"], "steps": steps, "final_answer": "x",
                              "attempts": draw(st.integers(1, 3))}
        elif kind == "discarded":
            completion = draw(st.none() | st.just("no pseudo-code here") | st.lists(names).map(
                lambda ns: "\n".join(f"{n}(doc)" for n in ns)))
            ann["discarded"] = {"reason": "no pseudo-code block", "attempts": 3,
                                "last_completion": completion}
        lines.append({"record_id": f"r{i:03d}" + draw(st.sampled_from(["", "\u2028", " é"])),
                      "page_id": "p0", "question": draw(st.text(max_size=20)),
                      "answers": ["a"], "annotations": ann})
    return lines


def _tags_only(objs):
    """What the slim tag artifacts keep of a record: its id and its tags."""
    return [{"record_id": obj["record_id"], "annotations": {"tags": obj["annotations"]["tags"]}}
            for obj in objs]


class TestSlimTagArtifacts:
    """``tags_raw`` and ``tags`` hold only ``record_id`` and the tags, built
    from profiles; they equal what the full-record writers wrote, projected
    to those fields, and the vocabulary is byte-identical."""

    @settings(max_examples=60, deadline=None)
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
            cli.extract_stage(raw, chained)
            profiles, vocab = cli.normalize_stage(raw, tagnorm.HashingEmbedder(), cfg, chained)
            # standalone commands over a generate artifact
            cli._write_stage(standalone, "generate", cli._jsonl(lines), "jsonl")
            assert run(["tag", "--stage", "extract", "--out", str(standalone)]) == 0
            assert run(["tag", "--stage", "normalize", "--out", str(standalone)] + flags) == 0

            assert profiles == old_profiles and vocab == old_vocab
            for stage in ("tags_raw", "tags"):
                expected = _tags_only(cli._stage_records(old, stage))
                assert list(cli._stage_records(chained, stage)) == expected
            manifests = [json.loads((d / "manifest.json").read_text())
                         for d in (chained, standalone)]
            assert manifests[0] == {k: v for k, v in manifests[1].items() if k != "generate"}
            assert json.loads((old / "manifest.json").read_text())["vocab"] == manifests[0]["vocab"]

    def test_normalize_peak_does_not_grow_with_record_fields(self, tmp_path):
        # tag --stage normalize keeps each tags_raw line's profile only, so
        # a 2 KB question on every line must not raise its traced peak
        import numpy  # noqa: F401  (the first embed imports it; keep that out of the peaks)

        vocab = [f"{verb}_{noun}" for verb in ("find", "read", "sum", "count")
                 for noun in ("row", "cell", "total", "date", "name")]

        def peak(question_chars, name):
            rng = random.Random(5)
            out = tmp_path / name
            cli._write_stage(out, "tags_raw", cli._jsonl(
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

    def test_sampling_curves_reads_line_separators(self, tmp_path):
        ds = make_dataset(seed=11, n_pages=4, records_per_page=5)
        ds.records[0].record_id += "\u2028"
        write_dataset(ds, tmp_path / "data" / "records.jsonl")
        out = tmp_path / "out"
        assert run(["pipeline", "--backend", "mock"] + _base_args(tmp_path / "data", out)) == 0
        script = Path(__file__).parents[1] / "scripts" / "sampling_curves.py"
        proc = subprocess.run([sys.executable, str(script), "--out", str(out), "--seeds", "2"],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ,
                                   "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("20 records\n")


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

    def test_kappa_subcommand(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text("[[20, 5], [10, 15]]", encoding="utf-8")
        assert run(["eval", "kappa", "--matrix", str(matrix)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kappa"] == pytest.approx(0.4)
        assert report["band"] == "fair"

    def test_missing_prediction_is_data_error(self, tmp_path):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        pred.write_text("", encoding="utf-8")
        gold.write_text('{"record_id": "r1", "answers": ["a"]}\n', encoding="utf-8")
        assert run(["eval", "anls", "--pred", str(pred), "--gold", str(gold)]) == 1


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
            sources = {obj["annotations"]["tags"]["source"]
                       for obj in cli._stage_records(tmp_path / "cpus2", "tags_raw")}
            assert sources == {"grammar", "fallback", "none"}

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

    def test_replay_miss_in_a_worker_exits_1(self, demo_dataset, tmp_path, monkeypatch,
                                             capfd):
        cache = _fill_mock_cache(demo_dataset, tmp_path, "plaintext")
        entries = sorted(cache.glob("*.json"))
        for entry in entries[::4]:
            entry.unlink()
        monkeypatch.setattr(cli, "CHUNK", 3)
        _cpus(monkeypatch, 2)
        capfd.readouterr()
        out = tmp_path / "out"
        code = run(["pipeline", "--style", "plaintext", "--backend", "cache",
                    "--cache-dir", str(cache)] + _base_args(demo_dataset, out))
        assert code == 1
        err = self._assert_failed_generate(out, capfd)
        assert "replay-only mode" in err

    def test_killed_worker_exits_1_without_hanging(self, demo_dataset, tmp_path,
                                                   monkeypatch, capfd):
        parent = os.getpid()
        complete = procgen.MockBackend.complete

        def dying(self, prompt, params=procgen.DecodeParams(), attempt=1):
            if os.getpid() != parent:
                os._exit(3)
            return complete(self, prompt, params, attempt)

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
    "render.max_chars": st.integers(max_value=-1),
    "generation.max_inflight": st.integers(max_value=0),
    "tagging.min_count": st.integers(max_value=0),
    "tagging.dbscan_eps": st.floats(max_value=0),
    "tagging.dbscan_min_pts": st.integers(max_value=0),
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
    "render": _COMMON_FLAGS + _RENDER_FLAGS
    + [(("--in",), "in_dir", None, None, None, "pages directory (standalone mode)")],
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
        dump_config(cfg, tmp_path / "cfg.yaml")
        assert load_config(tmp_path / "cfg.yaml") == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception):
            config_from_dict({"tagging": {"bogus_key": 1}})

    def test_every_config_key_has_a_flag(self):
        keys = {(section.name, f.name)
                for section in dataclasses.fields(PipelineConfig)
                for f in dataclasses.fields(getattr(PipelineConfig(), section.name))}
        assert keys <= set(cli.CONFIG_FLAGS.values())
        args = cli.build_parser().parse_args(["pipeline"])
        assert all(hasattr(args, dest) for dest in cli.CONFIG_FLAGS)

    def test_mixed_type_section_names_rejected(self, demo_dataset, tmp_path, capsys):
        with pytest.raises(ConfigError, match="unknown config sections"):
            config_from_dict({1: "x", "foo": "y"})
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("1: x\nfoo: y\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["pipeline", "--config", str(cfg)] + _base_args(demo_dataset, out)) == 1
        err = capsys.readouterr().err
        assert "error: unknown config sections" in err and "Traceback" not in err
        assert not out.exists()

    def test_flag_surface_is_unchanged(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {name: sorted((tuple(a.option_strings), a.dest, a.type,
                             tuple(a.choices) if a.choices else None, a.default, a.help)
                            for a in p._actions if not isinstance(a, argparse._HelpAction))
               for name, p in sub.choices.items() if name != "eval"}
        assert got == {name: sorted(flags) for name, flags in FLAG_SURFACE.items()}

    @pytest.mark.parametrize("section,key,value", [
        ("sampling", "ratio", "'0.3'"), ("tagging", "dbscan_eps", "abc"),
        ("sampling", "mode", "nope"), ("tagging", "min_count", "2.5"),
        ("sampling", "seed", "[1]"), ("render", "max_chars", "true"),
        ("generation", "temperature", "hot"),
        ("sampling", "ratio", "1" + "0" * 400),  # an int no float can hold
    ], ids=lambda v: v[:12])
    def test_mistyped_value_rejected_before_any_stage_writes(
            self, demo_dataset, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{section}:\n  {key}: {value}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["pipeline", "--config", str(cfg)] + _base_args(demo_dataset, out)) == 1
        assert f"error: {section}.{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value,message", [
        ("sampling", "ratio", "5", "must be <= 1"),
        ("sampling", "ratio", "0", "must be > 0"),
        ("sampling", "coverage", "1.5", "must be <= 1"),
        ("tagging", "min_count", "0", "must be >= 1"),
        ("tagging", "dbscan_min_pts", "0", "must be >= 1"),
        ("tagging", "dbscan_eps", ".nan", "must be finite"),
        ("tagging", "dbscan_eps", "0", "must be > 0"),
        ("render", "max_chars", "-5", "must be >= 0"),
        ("layout", "nms_iou_threshold", ".inf", "must be finite"),
    ])
    def test_out_of_range_value_rejected_before_any_stage_writes(
            self, demo_dataset, tmp_path, capsys, section, key, value, message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{section}:\n  {key}: {value}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["pipeline", "--config", str(cfg)] + _base_args(demo_dataset, out)) == 1
        assert f"error: {section}.{key} {message}" in capsys.readouterr().err
        assert not out.exists()
        flag = "--" + key.replace("_", "-")
        assert run(["pipeline", flag, value.lstrip(".")] + _base_args(demo_dataset, out)) == 1
        assert f"error: {section}.{key} {message}" in capsys.readouterr().err
        assert not out.exists()

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
        dump_config(cfg, tmp_path / "cfg.yaml")
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


def test_importing_the_cli_leaves_requests_unloaded():
    code = ("import sys, proctag.cli\n"
            "for name in ('requests', 'numpy', 'yaml'):\n"
            "    assert name not in sys.modules, f'{name} was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ,
                               "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
