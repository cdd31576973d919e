"""The shared store and HTTP adapter against the classes they replaced, kept
verbatim in ``oracles``: a cache the store fills replays, and its log holds
the bytes of the entry files the old classes write for the same calls, with
their key put first; the store never reads such files. The adapters send the
same requests and fail with the same error classes."""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from conftest import run_together
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from proctag import procgen, store, tagnorm
from proctag.errors import ProcTagError
from proctag.ingest import IoFailure
from proctag.procgen import BackendError, MockBackend
from proctag.tagnorm import HashingEmbedder

PROMPTS = ["Total of column 1?", "naïve “quotes” \u2028 and \n new\\lines", 'say "hi"', ""]
CALLS = [(prompt, temperature, attempt) for prompt in PROMPTS
         for temperature in (0.0, 0.7)
         for attempt in (1, 2)]
TAGS = ["find_table", "read_date", "naïve_tag", "b", "x" * 300]

def _undated(data):
    return re.sub(rb'"created_at": "[^"]+"', b'"created_at": ""', data)


def _assert_log_holds_the_old_entries(cache_dir, old_dir):
    """Each line of ``cache_dir``'s log is ``{"key": "<stem>", `` followed by
    the bytes after the ``{`` of the old entry file ``<stem>.json`` in
    ``old_dir``, apart from when each was made; every file has one line."""
    files = {p.name[:-len(".json")]: _undated(p.read_bytes()) for p in old_dir.glob("*.json")}
    lines = (cache_dir / store.LOG).read_bytes().split(b"\n")
    assert lines.pop() == b""
    keys = [line[9:73].decode() for line in lines]
    assert sorted(keys) == sorted(files)
    for key, line in zip(keys, lines):
        assert _undated(line) == b'{"key": "' + key.encode() + b'", ' + files[key][1:]


def test_completion_cache_replays_what_it_filled(tmp_path):
    written = tmp_path / "written"
    backend = procgen.CachingBackend(written, inner=MockBackend())
    want = [backend.complete(prompt, temp, attempt=a) for prompt, temp, a in CALLS]
    assert want == [MockBackend().complete(prompt, temp, a) for prompt, temp, a in CALLS]
    replay = procgen.CachingBackend(written, inner=None)
    assert [replay.complete(prompt, temp, attempt=a) for prompt, temp, a in CALLS] == want
    assert os.listdir(written) == [store.LOG]
    old = oracles.CachingBackend(tmp_path / "old", inner=MockBackend())
    for prompt, temp, a in CALLS:
        old.complete(prompt, temp, attempt=a)
    _assert_log_holds_the_old_entries(written, tmp_path / "old")
    with pytest.raises(BackendError, match="cache miss"):
        replay.complete("never seen", 0.0)


def test_embedding_cache_replays_what_it_filled(tmp_path):
    written = tmp_path / "written"
    embedder = tagnorm.CachingEmbedder(written, inner=HashingEmbedder())
    want = [embedder.embed(tag) for tag in TAGS]
    replay = tagnorm.CachingEmbedder(written, inner=None)
    for tag, vec in zip(TAGS, want):
        got = replay.embed(tag)
        assert got.dtype == vec.dtype and np.array_equal(got, vec)
        assert np.array_equal(got, HashingEmbedder().embed(tag))
    assert os.listdir(written) == [store.LOG]
    old = oracles.CachingEmbedder(tmp_path / "old", inner=HashingEmbedder())
    for tag in TAGS:
        old.embed(tag)
    _assert_log_holds_the_old_entries(written, tmp_path / "old")
    with pytest.raises(ProcTagError, match="cache miss for 'never_seen'"):
        replay.embed("never_seen")


# strings JSON must escape or must leave alone, and any other text
_awkward_text = st.text(st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028",
                                         "é", "\U0001f600", "a"]), max_size=8) | st.text()


@settings(max_examples=300, deadline=None)
@given(prompt=_awkward_text,
       temperature=st.integers(0, 2) | st.floats(0, 2)
       | st.sampled_from([1, 1.0, 0.1, 1e-7, 1e22, float("inf"), float("nan"), -0.0, 0.0]),
       attempt=st.integers(1, 3))
def test_cache_key_equals_the_json_dumps_key(prompt, temperature, attempt):
    # an int temperature is written as 1, a float one as 1.0, and -0.0 as
    # -0.0: different keys, though the numbers compare equal; the key is
    # also taken after one of an equal temperature
    for temp in (temperature, float(temperature), -0.0):
        assert (procgen._cache_key(prompt, temp, attempt)
                == oracles._cache_key(prompt, temp, attempt))


# keys that caches already filled were written under, so they must never
# change; an int temperature keeps a key of its own
PINNED_KEYS = {
    0.0: ("8470ea0e9ca148cf536d954338b9c3141fcf26afc8ae586d8068c912bb4e07cb",
          "91e26cdbac20138a89192c3a3d69bae2096e3c2e38a79a8cde647da33df28c20",
          "222581c9be634e9a0ef28fe19d3beefdf586e9b1470b91f3ca63cca21ed28083"),
    0.7: ("a11b29f436338da585294df82eecd672d8c0b9bdf3e9c83147e694b7403b36d9",
          "058b3c69b98b706a61359b707f9315bdb527292e0e2d4414b9bb72e357909234",
          "7ea646c873be81e5b4dba88da6808dfb9e9883997011d1cc5561282dc666f7c3"),
    1: ("e78f98c0475ccfb9d3a8fd2cc950220eb8ecad42781d02071c962c86f8bce55a",
        "91ac25739a54cb740191b7f7eefd323120af0ab32d19be834f27dea1ff88ae40",
        "1c039bda698f5bbb3a6ae680ea1bb821f1891971f0807e623c42ade95dc6cec1"),
}


@pytest.mark.parametrize("temperature", list(PINNED_KEYS), ids=repr)
def test_cache_keys_are_pinned(temperature):
    prompt = 'Which item appears first? "naïve"\n'
    assert tuple(procgen._cache_key(prompt, temperature, attempt)
                 for attempt in (1, 2, 3)) == PINNED_KEYS[temperature]


# entry text, and what the error says of it
BAD_ENTRIES = {
    "not-json": (b'{"prompt": ', "is not valid JSON"),
    "not-utf8": (b'{"completion": "\xff", "vector": []}', "is not valid JSON"),
    "not-an-object": (b'["completion", "vector"]', "is not an object with a"),
    "no-value": (b'{"prompt": "x", "tag": "x"}', "is not an object with a"),
    "wrong-type": (b'{"completion": 5, "vector": "x"}', "is not an object with a"),
    # the bytes of a surrogate, which json.loads of bytes would pass
    "surrogate-bytes": (b'{"completion": "\xed\xa0\x80", "vector": []}', "is not valid JSON"),
    "surrogate-escape": (b'{"completion": "a", "vector": ["\\udc80"]}',
                         "holds the lone surrogate '\\udc80', which UTF-8 cannot encode"),
}
STORES = {"completion": (procgen.CachingBackend, MockBackend, oracles.CachingBackend,
                         lambda s: s.complete("prompt", 0.0)),
          "vector": (tagnorm.CachingEmbedder, HashingEmbedder, oracles.CachingEmbedder,
                     lambda s: s.embed("find_table"))}


def _keyed(line, key):
    """An entry's text as a log line of ``key``: the key goes first in an
    object; anything else is left as it is, without its key."""
    text = b'{"key": "' + key + b'", ' + line[1:] if line.startswith(b"{") else line
    return text + b"\n"


@pytest.mark.parametrize("entry", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("kind", sorted(STORES))
@pytest.mark.parametrize("inner", [False, True], ids=["replay", "fill"])
def test_malformed_entry_is_an_io_failure_naming_its_file(tmp_path, kind, entry, inner):
    store_cls, inner_cls, _, call = STORES[kind]
    first = store_cls(tmp_path, inner=inner_cls())
    if kind == "completion":
        first.complete("an earlier prompt", 0.0)
    else:
        first.embed("an_earlier_tag")
    call(first)
    log = tmp_path / store.LOG
    good, target = log.read_bytes().splitlines(keepends=True)
    text, reason = BAD_ENTRIES[entry]
    log.write_bytes(good + _keyed(text, target[9:73]))
    before = log.read_bytes()
    # a line without its key fails the opening of the log, any other the lookup
    with pytest.raises(IoFailure) as info:
        call(store_cls(tmp_path, inner=inner_cls() if inner else None))
    assert str(info.value).startswith(f"cache entry {log}:2 {reason}")
    # never a miss: a bad entry is not refilled, nor retried as a transport failure
    assert not isinstance(info.value, BackendError)
    assert log.read_bytes() == before


@pytest.mark.parametrize("kind", sorted(STORES))
def test_old_entry_files_are_never_read(tmp_path, kind):
    # a cache directory in the one-file-per-entry format that preceded the log
    store_cls, inner_cls, old_cls, call = STORES[kind]
    call(old_cls(tmp_path, inner=inner_cls()))
    (path,) = tmp_path.iterdir()
    entry = json.loads(path.read_bytes())
    entry[kind] = "an old value" if kind == "completion" else [1.0, 0.0]
    path.write_text(json.dumps(entry), encoding="utf-8")
    before = path.read_bytes()
    what = "completion" if kind == "completion" else "embedding"
    with pytest.raises(IoFailure, match=f"^no {what} cache at {tmp_path}$"):
        store_cls(tmp_path, inner=None)
    assert os.listdir(tmp_path) == [path.name]
    # a filling store starts a log beside the old file and asks its inner
    got = call(store_cls(tmp_path, inner=inner_cls()))
    assert np.array_equal(got, call(inner_cls()))
    assert sorted(os.listdir(tmp_path)) == sorted([path.name, store.LOG])
    assert path.read_bytes() == before


@pytest.mark.parametrize("kind", sorted(STORES))
def test_a_replay_only_store_creates_nothing(tmp_path, kind):
    store_cls, _, _, _ = STORES[kind]
    what = "completion" if kind == "completion" else "embedding"
    (tmp_path / "empty").mkdir()
    (tmp_path / "a-file").write_text("")
    for name in ("missing", "empty", "a-file", "missing/deeper"):
        with pytest.raises(IoFailure, match=f"^no {what} cache at {tmp_path / name}$"):
            store_cls(tmp_path / name, inner=None)
    assert sorted(os.listdir(tmp_path)) == ["a-file", "empty"]
    assert os.listdir(tmp_path / "empty") == []


class _GatedMock:
    """The mock backend, answering only once both children are inside it,
    so each has missed the cache before either appends."""

    def __init__(self, gate):
        self.gate = gate

    def complete(self, prompt, temperature=0.0, attempt=1):
        self.gate.wait(10)
        return MockBackend().complete(prompt, temperature, attempt)


def _fill_in_a_child(backend, prompts):
    # each append is slow, so the other child reaches the lock while it is held
    write = os.write
    os.write = lambda fd, data: time.sleep(0.002) or write(fd, data)
    for prompt in prompts:
        backend.complete(prompt, 0.0)


def test_two_forked_processes_fill_one_cache_at_once(tmp_path):
    fork = multiprocessing.get_context("fork")
    # the store is opened before the fork, so each child must take its own lock
    backend = procgen.CachingBackend(tmp_path, inner=_GatedMock(fork.Barrier(2)))
    prompts = [f"Total of column {i}?" for i in range(100)]
    children = [fork.Process(target=_fill_in_a_child, args=(backend, prompts))
                for _ in range(2)]
    for child in children:
        child.start()
    for child in children:
        child.join(60)
    assert [child.exitcode for child in children] == [0, 0]
    lines = (tmp_path / store.LOG).read_bytes().split(b"\n")
    assert lines.pop() == b""
    # each line one whole entry: none interleaved with another
    entries = [json.loads(line) for line in lines]
    assert all(line.startswith(b'{"key": "') for line in lines)
    keys = [entry["key"] for entry in entries]
    assert len(keys) == len(set(keys)) == len(prompts)
    replay = procgen.CachingBackend(tmp_path, inner=None)
    for prompt in prompts:
        want = MockBackend().complete(prompt, 0.0)
        assert replay.complete(prompt, 0.0) == backend.complete(prompt) == want


def test_a_key_written_twice_replays_its_first_line(tmp_path):
    procgen.CachingBackend(tmp_path, inner=MockBackend()).complete("twice", 0.0)
    log = tmp_path / store.LOG
    (first,) = log.read_bytes().splitlines(keepends=True)
    second = json.loads(first) | {"completion": "written second"}
    with open(log, "ab") as fh:
        fh.write(json.dumps(second).encode() + b"\n")
    want = MockBackend().complete("twice", 0.0)
    assert procgen.CachingBackend(tmp_path, inner=None).complete("twice") == want


def test_a_torn_last_line_is_ignored_then_replaced(tmp_path):
    backend = procgen.CachingBackend(tmp_path / "whole", inner=MockBackend())
    backend.complete("the torn one", 0.0)
    (whole,) = (tmp_path / "whole" / store.LOG).read_bytes().splitlines(keepends=True)
    cache = tmp_path / "cache"
    filler = procgen.CachingBackend(cache, inner=MockBackend())
    for i in range(3):
        filler.complete(f"earlier {i}", 0.0)
    log = cache / store.LOG
    earlier = log.read_bytes()
    # what a writer that crashed mid-line leaves behind
    with open(log, "ab") as fh:
        fh.write(whole[:len(whole) // 2])
    with pytest.raises(BackendError, match="replay-only mode"):
        procgen.CachingBackend(cache, inner=None).complete("the torn one", 0.0)
    refill = procgen.CachingBackend(cache, inner=MockBackend())
    want = MockBackend().complete("the torn one", 0.0)
    assert refill.complete("the torn one", 0.0) == want
    data = log.read_bytes()
    assert data.startswith(earlier) and _undated(data[len(earlier):]) == _undated(whole)
    assert procgen.CachingBackend(cache, inner=None).complete("the torn one") == want


def test_four_threads_missing_one_key_all_get_the_first_value(tmp_path):
    class Distinct:
        """Answers only once all four fillers are inside it, so each of them
        has missed the cache before any of them writes; each answer differs."""

        gate = threading.Barrier(4, timeout=10)
        answers = iter(range(10**6))
        lock = threading.Lock()

        def complete(self, prompt, temperature=0.0, attempt=1):
            self.gate.wait()
            with self.lock:
                return f"{prompt} answer {next(self.answers)}"

    backend = procgen.CachingBackend(tmp_path, inner=Distinct())
    for i in range(20):
        got = []
        assert run_together(lambda: got.append(backend.complete(f"p{i}"))) == []
        assert len(got) == 4 and len(set(got)) == 1
        assert procgen.CachingBackend(tmp_path, inner=None).complete(f"p{i}") == got[0]
    lines = (tmp_path / store.LOG).read_bytes().splitlines()
    assert len(lines) == 20


def test_a_short_write_is_truncated_away(tmp_path, monkeypatch):
    backend = procgen.CachingBackend(tmp_path, inner=MockBackend())
    backend.complete("first", 0.0)
    log = tmp_path / store.LOG
    before = log.read_bytes()
    write = os.write
    with monkeypatch.context() as patch:
        patch.setattr(os, "write", lambda fd, data: write(fd, data[:len(data) // 2]))
        with pytest.raises(IoFailure, match=f"cannot append to {log}: short write"):
            backend.complete("second", 0.0)
    assert log.read_bytes() == before
    assert backend.complete("second", 0.0) == MockBackend().complete("second")
    assert len(log.read_bytes().splitlines()) == 2


class _Recorder(BaseHTTPRequestHandler):
    """Records each POST's path, bearer header and body, and answers a chat
    or an embedding reply by the body's shape; /status answers 503 and
    /malformed a reply of the wrong shape."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append((self.path, self.headers.get("Authorization"), body))
        if "messages" in body:
            content = body["messages"][0]["content"][::-1]
            reply = {"choices": [{"message": {"content": content}}]}
        else:
            reply = {"embedding": [float(len(body["input"])), 0.5]}
        if self.path == "/malformed":
            reply = {"choices": []} if "messages" in body else {"vector": [1.0]}
        data = json.dumps(reply).encode("utf-8")
        self.send_response(503 if self.path == "/status" else 200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def recorder():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Recorder)
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(10)


# old class, new class, one call, the error class every failure must raise
ADAPTERS = {
    "backend": (oracles.RemoteBackend, procgen.RemoteBackend,
                lambda a: a.complete("naïve prompt", 0.5, attempt=2),
                BackendError),
    "embedder": (oracles.RemoteEmbedder, tagnorm.RemoteEmbedder,
                 lambda a: a.embed("find_table").tolist(), ProcTagError),
}


@pytest.mark.parametrize("path", ["/v1", "/status", "/malformed"])
@pytest.mark.parametrize("kind", sorted(ADAPTERS))
@pytest.mark.parametrize("api_key", ["k", None])
def test_adapters_send_the_same_requests_and_raise_the_same_errors(recorder, monkeypatch,
                                                                  kind, path, api_key):
    server, url = recorder
    for name in ("PROCTAG_BACKEND_KEY", "PROCTAG_EMBED_KEY"):
        monkeypatch.delenv(name, raising=False)
    old, new, call, error = ADAPTERS[kind]
    outcomes = []
    for cls in (old, new):
        try:
            outcomes.append(call(cls(url=url + path, api_key=api_key)))
        except ProcTagError as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is error) == (path != "/v1")
    assert len(server.seen) == 2 and server.seen[0] == server.seen[1]
    assert server.seen[0][1] == (f"Bearer {api_key}" if api_key else None)
