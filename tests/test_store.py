"""The shared store and HTTP adapter against the classes they replaced, kept
verbatim in ``oracles``: a cache written by either side replays through the
other under the same file names, and the adapters send the same requests and
fail with the same error classes."""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from proctag import procgen, tagnorm
from proctag.errors import ProcTagError
from proctag.ingest import IoFailure
from proctag.procgen import BackendError, DecodeParams, MockBackend
from proctag.tagnorm import HashingEmbedder

PROMPTS = ["Total of column 1?", "naïve “quotes” \u2028 and \n new\\lines", 'say "hi"', ""]
CALLS = [(prompt, params, attempt) for prompt in PROMPTS
         for params in (DecodeParams(), DecodeParams(temperature=0.7, max_tokens=64))
         for attempt in (1, 2)]
TAGS = ["find_table", "read_date", "naïve_tag", "b", "x" * 300]

BACKENDS = {"old": oracles.CachingBackend, "new": procgen.CachingBackend}
EMBEDDERS = {"old": oracles.CachingEmbedder, "new": tagnorm.CachingEmbedder}
DIRECTIONS = pytest.mark.parametrize("writer,reader", [("old", "new"), ("new", "old")])


def _entries(cache_dir):
    """Each entry's bytes by file name, apart from when it was made."""
    return {p.name: re.sub(rb'"created_at": "[^"]+"', b'"created_at": ""', p.read_bytes())
            for p in cache_dir.iterdir()}


@DIRECTIONS
def test_completion_cache_replays_across_old_and_new(tmp_path, writer, reader):
    filler = BACKENDS[writer](tmp_path / "written", inner=MockBackend())
    want = [filler.complete(prompt, params, attempt=a) for prompt, params, a in CALLS]
    assert want == [MockBackend().complete(prompt, params, a) for prompt, params, a in CALLS]
    replay = BACKENDS[reader](tmp_path / "written", inner=None)
    assert [replay.complete(prompt, params, attempt=a) for prompt, params, a in CALLS] == want
    other = BACKENDS[reader](tmp_path / "other", inner=MockBackend())
    for prompt, params, a in CALLS:
        other.complete(prompt, params, attempt=a)
    assert _entries(tmp_path / "written") == _entries(tmp_path / "other")
    with pytest.raises(BackendError, match="cache miss"):
        replay.complete("never seen", DecodeParams())


@DIRECTIONS
def test_embedding_cache_replays_across_old_and_new(tmp_path, writer, reader):
    filler = EMBEDDERS[writer](tmp_path / "written", inner=HashingEmbedder())
    want = [filler.embed(tag) for tag in TAGS]
    replay = EMBEDDERS[reader](tmp_path / "written", inner=None)
    for tag, vec in zip(TAGS, want):
        got = replay.embed(tag)
        assert got.dtype == vec.dtype and np.array_equal(got, vec)
        assert np.array_equal(got, HashingEmbedder().embed(tag))
    other = EMBEDDERS[reader](tmp_path / "other", inner=HashingEmbedder())
    for tag in TAGS:
        other.embed(tag)
    assert _entries(tmp_path / "written") == _entries(tmp_path / "other")
    with pytest.raises(ProcTagError, match="cache miss for 'never_seen'"):
        replay.embed("never_seen")


# strings JSON must escape or must leave alone, and any other text
_awkward_text = st.text(st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028",
                                         "é", "\U0001f600", "a"]), max_size=8) | st.text()


@settings(max_examples=300, deadline=None)
@given(prompt=_awkward_text,
       temperature=st.integers(0, 2) | st.floats(0, 2)
       | st.sampled_from([1, 1.0, 0.1, 1e-7, 1e22, float("inf"), float("nan")]),
       max_tokens=st.none() | st.integers(0, 10**6), attempt=st.integers(1, 3))
def test_cache_key_equals_the_json_dumps_key(prompt, temperature, max_tokens, attempt):
    # an int temperature is written as 1, a float one as 1.0: different keys
    params = DecodeParams(temperature=temperature, max_tokens=max_tokens)
    assert procgen._cache_key(prompt, params, attempt) == oracles._cache_key(prompt, params, attempt)


# entry text, and what the error says of it
BAD_ENTRIES = {
    "not-json": (b'{"prompt": ', "is not valid JSON"),
    "not-utf8": (b'{"completion": "\xff", "vector": []}', "is not valid JSON"),
    "not-an-object": (b'["completion", "vector"]', "is not an object with a"),
    "no-value": (b'{"prompt": "x", "tag": "x"}', "is not an object with a"),
    "wrong-type": (b'{"completion": 5, "vector": "x"}', "is not an object with a"),
}
STORES = {"completion": (procgen.CachingBackend, MockBackend,
                         lambda s: s.complete("prompt", DecodeParams())),
          "vector": (tagnorm.CachingEmbedder, HashingEmbedder, lambda s: s.embed("find_table"))}


@pytest.mark.parametrize("entry", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("kind", sorted(STORES))
@pytest.mark.parametrize("inner", [False, True], ids=["replay", "fill"])
def test_malformed_entry_is_an_io_failure_naming_its_file(tmp_path, kind, entry, inner):
    store_cls, inner_cls, call = STORES[kind]
    call(store_cls(tmp_path, inner=inner_cls()))
    (path,) = tmp_path.iterdir()
    text, reason = BAD_ENTRIES[entry]
    path.write_bytes(text)
    store = store_cls(tmp_path, inner=inner_cls() if inner else None)
    with pytest.raises(IoFailure) as info:
        call(store)
    assert str(info.value).startswith(f"cache entry {path} {reason}")
    # never a miss: a bad entry is not refilled, nor retried as a transport failure
    assert not isinstance(info.value, BackendError)
    assert path.read_bytes() == text


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
                lambda a: a.complete("naïve prompt", DecodeParams(0.5, 32), attempt=2),
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
