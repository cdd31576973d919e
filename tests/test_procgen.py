from __future__ import annotations

import json
import os
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import run_together
from proctag.errors import ProcTagError
from proctag.ingest import InstructionRecord
from proctag.procgen import (MAX_ATTEMPTS, BackendError, BackendUnavailable,
                             CachingBackend, Discarded, GenerationLedger,
                             MockBackend, ParseFailure, RemoteBackend, build_prompt,
                             generate_all, generate_process, parse_response,
                             validate_chain)
from proctag.render import DOCLAYPROMPT, DocumentRepresentation
from proctag.tagparse import ProcessStep, parse_pseudocode

VALID_COMPLETION = """\
1. Locate the table on the page.
2. Read the total from it.

```
step1: t = find_table(document)
step2: v = read_value(t)
```

ANSWER: 42
"""


def mkrep(text="[table]\nTotal 12\n[/table]", page_id="p1"):
    return DocumentRepresentation(page_id=page_id, style=DOCLAYPROMPT, text=text,
                                  char_cell_width=8.0, token_count=2)


def mkrec(record_id="r1", page_id="p1", question="What is the total?"):
    return InstructionRecord(record_id=record_id, page_id=page_id, question=question)


class ScriptedBackend:
    """Returns unparseable junk the first ``failures`` times per prompt, then
    a valid completion. ``transport=True`` raises BackendError instead."""

    def __init__(self, failures: int = 0, transport: bool = False):
        self.failures = failures
        self.transport = transport
        self.calls: Counter[str] = Counter()

    def complete(self, prompt, temperature=0.0, attempt=1):
        self.calls[prompt] += 1
        if self.calls[prompt] <= self.failures:
            if self.transport:
                raise BackendError("scripted transport failure")
            return "no code fence here"
        return VALID_COMPLETION


class TestBuildPrompt:
    def test_contains_question_and_text(self):
        rep = mkrep()
        prompt = build_prompt(rep, "What is the total?")
        assert "What is the total?" in prompt
        assert rep.text in prompt

    def test_deterministic(self):
        rep = mkrep()
        assert build_prompt(rep, "q?") == build_prompt(rep, "q?")

    def test_layout_tag_preserved_verbatim(self):
        assert "[table]" in build_prompt(mkrep(), "q?")

    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            build_prompt(mkrep(), "   ")


class TestParseResponse:
    def test_well_formed(self):
        process = parse_response(VALID_COMPLETION)
        assert [s.function_name for s in process.steps] == ["find_table", "read_value"]
        assert process.cot == ["Locate the table on the page.", "Read the total from it."]
        assert process.final_answer == "42"
        assert oracles.chain_valid_reference(process.steps)

    def test_missing_fence(self):
        with pytest.raises(ParseFailure, match="no pseudo-code block"):
            parse_response("1. think\nANSWER: 12")

    def test_chain_consuming_previous_output(self):
        completion = "```\nstep1: a = f(document)\nstep2: b = g(a)\n```"
        process = parse_response(completion)
        assert oracles.chain_valid_reference(process.steps)

    def test_broken_chain_rejected(self):
        completion = "```\nstep1: a = f(document)\nstep2: b = g(other)\n```"
        assert not oracles.chain_valid_reference(parse_pseudocode_steps(completion))
        with pytest.raises(ParseFailure, match="chain"):
            parse_response(completion)

    def test_grammar_violation_wrapped(self):
        with pytest.raises(ParseFailure, match="grammar"):
            parse_response("```\nthis is not a step\n```")

    def test_missing_answer_tolerated(self):
        assert parse_response("```\ns = f(document)\n```").final_answer is None


# pieces that the one-scan parse must take as the line-by-line parse did:
# every character at which str.splitlines ends a line and spaces that end
# none, non-ASCII identifiers, digits and spaces, quoted commas and
# parentheses, argument lists that only the character walker accepts,
# fences that are empty, unterminated or repeated, and answer lines
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
           "\u2029"]
_PIECES = _BREAKS + [
    " ", "\t", "\x1f", "\xa0", "\u3000", "é", "naïve_x", "\u0663", "_1", "r1", "document",
    '"a,b"', '"f(x)"', "'a)'", '"a" "b"', "'a' 'b'", '"', "'", ",", ", ", "(", ")", "=", ":",
    "step1: ", "step\u0663: ", "x = f(", "x = f()", "y = g(x)", "1. ", "2) ", "3:", "-1.5", "1.",
    "```", "```\n", "```py\n", "\n```\n", "``````", "ANSWER: x", "\nANSWER: y\n", "ANSWER:",
    "  ANSWER:\n"]


@st.composite
def _completions(draw):
    """A mock completion, or one whose fence holds lines put together from
    pieces, with up to five pieces put in at random places, each in place
    of up to three characters."""
    if draw(st.booleans()):
        text = MockBackend().complete(draw(st.text(max_size=8)))
    else:
        lines = draw(st.lists(st.lists(st.sampled_from(_PIECES) | st.text(max_size=3),
                                       max_size=8).map("".join), max_size=4))
        text = "1. Look.\n```\n" + "\n".join(lines) + "\n```\nANSWER: 1\n"
    for _ in range(draw(st.integers(0, 5))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.sampled_from(_PIECES) | st.text(max_size=3)) + text[at + cut:]
    return text


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class and text of what it raises."""
    try:
        return fn(*args)
    except (ProcTagError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=1500, deadline=None)
@given(completion=_completions())
@example(completion="1. a\r2. b\u2028 3) c\n```\nstep1: r1 = f(document)\n```\nANSWER: 1\n")
@example(completion='```\nx = f(document, "a" "b")\n```')
@example(completion="```\n\nx = f(document)\n\n  \n```")
@example(completion="```\nx = f(document)\r\ny = g(x)\n```")
@example(completion="```\nx = f(document, 'a', 1, -2.5, \"(,)\")\n```")
@example(completion="```\nstep\u0663: x\u0663 = f\u00e9(document)\n```")
@example(completion="```\nx = f(document)\n```ANSWER: a\n```\ny = g(x)\n```")
@example(completion="```\n```")
@example(completion="```\nx = f()\n```")
def test_parse_equals_the_line_by_line_parse(completion):
    got, want = _outcome(parse_response, completion), _outcome(oracles.parse_response, completion)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert (got.to_json(), got.steps) == (want.to_json(), want.steps)
        assert all(type(step) is ProcessStep for step in got.steps)
    # the completion whole, as a block, reaches every grammar violation
    assert (_outcome(parse_pseudocode, completion)
            == _outcome(oracles.parse_pseudocode, completion))


@pytest.mark.parametrize("brk", _BREAKS, ids=ascii)
def test_every_line_break_ends_a_line_as_before(brk):
    for block in (f"x = f(document{brk}, r)", f'x = f("a{brk}b")', f"x = f('{brk}')",
                  f"x = f(document){brk}y = g(x)", f"x = f(document{brk})",
                  f"step1{brk}: x = f(document)", f"x{brk}= f(document)", f"x = f(){brk}"):
        completion = f"1. a{brk}2. b\n```\n{block}\n```\nANSWER: 1{brk}2\n"
        got, want = (_outcome(parse_response, completion),
                     _outcome(oracles.parse_response, completion))
        assert got == want if isinstance(want, tuple) else got.to_json() == want.to_json()
        assert _outcome(parse_pseudocode, block) == _outcome(oracles.parse_pseudocode, block)


_braced = st.text(max_size=6) | st.sampled_from(
    ["{document}", "{question}", "{", "}", "{{", "}}", "{0}", "{document!r}", "{}", "  "])


@settings(max_examples=300, deadline=None)
@given(document=st.lists(_braced, max_size=4).map("".join),
       question=st.lists(_braced, max_size=4).map("".join))
def test_build_prompt_equals_the_format_form(document, question):
    assert (_outcome(build_prompt, mkrep(text=document), question)
            == _outcome(oracles.build_prompt, mkrep(text=document), question))


# names that are identifiers (ASCII start, unicode after it, or one that
# ``$`` matches before a trailing newline) and names that are not
_chain_names = st.sampled_from(["document", "a", "b", "_", "aé", "x\n", "a\n", "é", "1a",
                                "", " a", "a b", "a\n\n", "document\n"]) | st.text(max_size=3)
_chain_steps = st.lists(st.builds(ProcessStep, index=st.integers(1, 9), output_var=_chain_names,
                                  function_name=st.just("f"),
                                  args=st.lists(_chain_names, max_size=4)), max_size=6)


@settings(max_examples=500, deadline=None)
@given(steps=_chain_steps)
@example(steps=[ProcessStep(1, "x\n", "f", ["document"]), ProcessStep(2, "y", "g", ["x\n"])])
@example(steps=[ProcessStep(1, "1a", "f", ["document"]), ProcessStep(2, "y", "g", ["1a"])])
@example(steps=[ProcessStep(1, "aé", "f", []), ProcessStep(2, "y", "g", ["aé"])])
@example(steps=[ProcessStep(1, "a", "f", []), ProcessStep(2, "y", "g", ["document"])])
def test_validate_chain_equals_reference(steps):
    assert validate_chain(steps) == oracles.chain_valid_reference(steps)


def parse_pseudocode_steps(completion):
    from proctag.tagparse import parse_pseudocode
    block = completion.split("```")[1]
    return parse_pseudocode(block)


def generate_one(backend, ledger):
    """The outcome of one record, counted in ``ledger`` as ``generate_all`` counts it."""
    [result] = generate_all([mkrec()], {"p1": mkrep()}, backend, ledger, max_inflight=1)
    return result


class TestGenerateProcess:
    def test_mock_first_attempt(self):
        ledger = GenerationLedger()
        result = generate_one(MockBackend(), ledger)
        assert not isinstance(result, Discarded)
        assert result.attempts == 1
        assert ledger.succeeded == 1 and ledger.discarded == 0

    def test_one_failure_then_valid(self):
        backend = ScriptedBackend(failures=1)
        result = generate_process(mkrec(), mkrep(), backend)
        assert result.attempts == 2

    def test_three_failures_discard(self):
        ledger = GenerationLedger()
        backend = ScriptedBackend(failures=3)
        result = generate_one(backend, ledger)
        assert isinstance(result, Discarded)
        assert result.attempts == 3
        assert result.last_completion == "no code fence here"
        assert ledger.discarded == 1 and ledger.total == 1

    def test_attempt_bound(self):
        backend = ScriptedBackend(failures=99)
        generate_process(mkrec(), mkrep(), backend)
        assert max(backend.calls.values()) == 3

    def test_transport_failures_raise_after_budget(self):
        backend = ScriptedBackend(failures=99, transport=True)
        ledger = GenerationLedger()
        with pytest.raises(BackendUnavailable):
            generate_one(backend, ledger)
        assert ledger.total == 0  # infrastructure failure, not a data discard

    def test_transport_then_success(self):
        backend = ScriptedBackend(failures=2, transport=True)
        result = generate_process(mkrec(), mkrep(), backend)
        assert result.attempts == 3


class TestGenerationLedger:
    def test_paper_boundary(self):
        ledger = GenerationLedger()
        for i in range(999):
            ledger.record_success(f"r{i}", 1)
        ledger.record_discard("r999", 3)
        assert (ledger.succeeded, ledger.discarded, ledger.total) == (999, 1, 1000)
        assert ledger.attempts_by_record["r999"] == 3

    def test_empty_ledger(self):
        assert GenerationLedger().to_dict() == {"total": 0, "succeeded": 0, "discarded": 0,
                                                "attempts_by_record": {}}


class TestGenerateAll:
    def test_results_in_input_order(self):
        records = [mkrec(f"r{i}", question=f"What is item {i}?") for i in range(12)]
        reps = {"p1": mkrep()}
        ledger = GenerationLedger()
        results = generate_all(records, reps, MockBackend(), ledger, max_inflight=4)
        assert len(results) == 12
        assert ledger.total == 12
        # counted on the calling thread, in input order
        assert list(ledger.attempts_by_record) == [r.record_id for r in records]

    def test_pure_function_of_dataset(self):
        records = [mkrec(f"r{i}", question=f"Where is row {i}?") for i in range(8)]
        reps = {"p1": mkrep()}
        runs = []
        for _ in range(2):
            out = generate_all(records, reps, MockBackend(), GenerationLedger(),
                               max_inflight=3)
            runs.append([p.to_json() for p in out])
        assert runs[0] == runs[1]


class CountingBackend:
    def __init__(self):
        self.calls = 0
        self.inner = MockBackend()

    def complete(self, prompt, temperature=0.0, attempt=1):
        self.calls += 1
        return self.inner.complete(prompt, temperature, attempt)


class TestCachingBackend:
    def test_replay_without_live_calls(self, tmp_path):
        records = [mkrec(f"r{i}", question=f"Total of column {i}?") for i in range(5)]
        reps = {"p1": mkrep()}
        counting = CountingBackend()
        backend = CachingBackend(tmp_path / "cache", inner=counting)
        first = [p.to_json() for p in
                 generate_all(records, reps, backend, GenerationLedger(), max_inflight=1)]
        calls_after_first = counting.calls
        assert calls_after_first == 5
        second = [p.to_json() for p in
                  generate_all(records, reps, backend, GenerationLedger(), max_inflight=1)]
        assert counting.calls == calls_after_first  # all cache hits
        assert first == second

    def test_replay_only_miss_is_transport_error(self, tmp_path):
        CachingBackend(tmp_path / "cache", inner=MockBackend())  # an empty cache
        backend = CachingBackend(tmp_path / "cache", inner=None)
        with pytest.raises(BackendError, match="cache miss"):
            backend.complete("never seen", 0.0)

    def test_retries_have_distinct_cache_slots(self, tmp_path):
        backend = CachingBackend(tmp_path / "cache", inner=MockBackend())
        backend.complete("p", 0.0, attempt=1)
        backend.complete("p", 0.0, attempt=2)
        lines = (tmp_path / "cache" / "entries.jsonl").read_bytes().splitlines()
        assert len({json.loads(line)["key"] for line in lines}) == len(lines) == 2

    def test_concurrent_fills_of_one_key(self, tmp_path):
        class SlowBackend:
            """Answers only once all four fillers are inside it, so each of
            them has missed the cache before any of them writes it."""

            gate = threading.Barrier(4, timeout=10)

            def complete(self, prompt, temperature=0.0, attempt=1):
                self.gate.wait()
                return MockBackend().complete(prompt, temperature, attempt)

        backend = CachingBackend(tmp_path, inner=SlowBackend())
        prompts = [f"Total of column {i}?" for i in range(40)]
        for prompt in prompts:
            assert run_together(lambda: backend.complete(prompt, 0.0)) == []
        assert os.listdir(tmp_path) == ["entries.jsonl"]
        entries = [json.loads(line)
                   for line in (tmp_path / "entries.jsonl").read_bytes().splitlines()]
        assert len({entry["key"] for entry in entries}) == len(entries) == len(prompts)
        got = sorted(entry["completion"] for entry in entries)
        assert got == sorted(MockBackend().complete(p, 0.0) for p in prompts)


class _ChatHandler(BaseHTTPRequestHandler):
    """Echoes the prompt as a chat completion; the path picks a failure:
    /status answers 503, /malformed a body without a message."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        self.server.seen.append((prompt, self.headers.get("Authorization")))
        status, reply = 200, {"choices": [{"message": {"content": f"echo: {prompt[:20]}"}}]}
        if self.path == "/status":
            status = 503
        elif self.path == "/malformed":
            reply = {"choices": []}
        data = json.dumps(reply).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(10)


class TestRemoteBackend:
    def test_round_trip(self, chat_server):
        server, url = chat_server
        backend = RemoteBackend(url=url + "/v1/chat", api_key="k")
        out = backend.complete("hello world", 0.0)
        assert out == "echo: hello world"
        assert server.seen == [("hello world", "Bearer k")]

    def test_key_and_url_read_from_the_environment(self, chat_server, monkeypatch):
        server, url = chat_server
        monkeypatch.setenv("PROCTAG_BACKEND_URL", url + "/v1/chat")
        monkeypatch.setenv("PROCTAG_BACKEND_KEY", "env-key")
        assert RemoteBackend().complete("hi", 0.0) == "echo: hi"
        assert server.seen == [("hi", "Bearer env-key")]

    def test_unreachable_is_backend_error(self):
        backend = RemoteBackend(url="http://127.0.0.1:9/nope", timeout=0.2)
        with pytest.raises(BackendError):
            backend.complete("x", 0.0)

    @pytest.mark.parametrize("path,message", [("/status", "HTTP 503"),
                                              ("/malformed", "unexpected backend response")])
    def test_bad_reply_is_retried_as_a_backend_error(self, chat_server, path, message):
        # a BackendError is retried by generate_process; any other error
        # type would end the generate stage at the first bad reply
        server, url = chat_server
        backend = RemoteBackend(url=url + path)
        with pytest.raises(BackendError, match=message):
            backend.complete("x", 0.0)
        with pytest.raises(BackendUnavailable, match=message):
            generate_process(mkrec("r1"), mkrep(), backend)
        assert len(server.seen) == 1 + MAX_ATTEMPTS

    def test_missing_url_rejected(self, monkeypatch):
        monkeypatch.delenv("PROCTAG_BACKEND_URL", raising=False)
        with pytest.raises(BackendError):
            RemoteBackend()
