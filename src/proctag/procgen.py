"""Execution-process generation: prompt construction, completion parsing, and
the retry/discard loop around a pluggable completion backend.

A record gets at most three backend calls (one initial try plus two
retries). The first parseable completion wins; if all three fail to parse
the record is discarded. Transport failures share the same budget but
surface as :class:`BackendUnavailable` instead of a discard when the final
attempt could not reach the backend at all. :func:`generate_all` counts each
outcome in a :class:`GenerationLedger`.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Any, Protocol

from .errors import ProcTagError
from .ingest import InstructionRecord, checked
from .render import DocumentRepresentation
from .store import JsonPost, Store
from .tagparse import GrammarViolation, ProcessStep, parse_pseudocode

if TYPE_CHECKING:
    import requests

MAX_ATTEMPTS = 3  # one call plus two retries

ANSWER_PREFIX = "ANSWER:"
DOCUMENT_VAR = "document"


class ParseFailure(ProcTagError):
    """A completion did not satisfy the response contract."""


class BackendError(ProcTagError):
    """Transport-level failure talking to a backend (retryable)."""


class BackendUnavailable(ProcTagError):
    """Every attempt failed at the transport level."""


class GenerationBackend(Protocol):
    def complete(self, prompt: str, temperature: float, attempt: int = 1) -> str:
        """Return a completion for the prompt; raise BackendError on transport failure."""
        ...


@dataclass
class ExecutionProcess:
    """Chain-of-thought lines plus the parsed pseudo-code steps for one record."""

    cot: list[str]
    steps: list[ProcessStep]
    final_answer: str | None = None
    attempts: int = 1

    def to_json(self) -> str:
        """This process's block as ``dumps_json`` writes it, from each value's JSON text."""
        enc = encode_basestring
        steps = ", ".join(
            f'{{"args": [{", ".join(map(enc, step.args))}], '
            f'"function_name": {enc(step.function_name)}, "index": {step.index}, '
            f'"output_var": {enc(step.output_var)}}}' for step in self.steps)
        answer = "null" if self.final_answer is None else enc(self.final_answer)
        return (f'{{"attempts": {self.attempts}, "cot": [{", ".join(map(enc, self.cot))}], '
                f'"final_answer": {answer}, "steps": [{steps}]}}')

    @classmethod
    def from_dict(cls, obj: Any, at: str = "process") -> "ExecutionProcess":
        """The process ``to_json`` wrote; a ValueError names the first field
        missing or of the wrong type by its dotted path under ``at``, the
        path of ``obj``."""
        cot, steps, answer, attempts = checked(obj, at, cot=list[str], steps=list,
                                               final_answer=(str, type(None)), attempts=int)
        return cls(cot, [ProcessStep(*checked(step, f"{at}.steps[{i}]", index=int,
                                              output_var=str, function_name=str, args=list[str]))
                         for i, step in enumerate(steps)], answer, attempts)


@dataclass
class Discarded:
    """Marker result for a record whose completions never parsed."""

    reason: str
    attempts: int
    last_completion: str | None = None

    def to_json(self) -> str:
        """This discard's block, as :meth:`ExecutionProcess.to_json` writes."""
        last = "null" if self.last_completion is None else encode_basestring(self.last_completion)
        return (f'{{"attempts": {self.attempts}, "last_completion": {last}, '
                f'"reason": {encode_basestring(self.reason)}}}')


class GenerationLedger:
    """Success/discard accounting; total == succeeded + discarded."""

    def __init__(self) -> None:
        self.succeeded = 0
        self.discarded = 0
        self.attempts_by_record: dict[str, int] = {}

    @property
    def total(self) -> int:
        return self.succeeded + self.discarded

    def record_success(self, record_id: str, attempts: int) -> None:
        self.succeeded += 1
        self.attempts_by_record[record_id] = attempts

    def record_discard(self, record_id: str, attempts: int) -> None:
        self.discarded += 1
        self.attempts_by_record[record_id] = attempts

    def to_dict(self) -> dict[str, Any]:
        return {"total": self.total, "succeeded": self.succeeded,
                "discarded": self.discarded,
                "attempts_by_record": dict(self.attempts_by_record)}


# ---------------------------------------------------------------------------
# prompting and parsing

_PROMPT_TEMPLATE = """\
You are given the text of a document page and a question about it.

Document:
<BEGIN DOCUMENT>
{document}
<END DOCUMENT>

Question: {question}

First write a numbered step-by-step explanation of how to answer the question
from the document, one step per line, like "1. ...".
Then translate those steps into pseudo-code inside a single triple-backtick
code fence. Use exactly one line per step, of the form
`stepN: result_var = function_name(arguments)`, where the first step takes
the variable `document` and every later step consumes the output variable of
an earlier step.
Finally, on its own line, write the answer as `ANSWER: <answer>`.
"""

# the template's fixed text around its two fields, which str.format would
# fill; the template holds no other brace
_PROMPT_HEAD, _PROMPT_MID, _PROMPT_TAIL = re.split(r"\{document\}|\{question\}",
                                                 _PROMPT_TEMPLATE)

_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)
# a chain-of-thought line, among lines ended by "\n" alone
_COT_LINE_RE = re.compile(r"^[^\S\n]*\d+[.):][^\S\n]*(.+)$", re.MULTILINE)
_ANSWER_RE = re.compile(r"^\s*ANSWER:\s*(.*)$", re.MULTILINE)
_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")


def build_prompt(rep: DocumentRepresentation, question: str) -> str:
    """Deterministic prompt embedding the representation and question verbatim."""
    if not question.strip():
        raise ValueError("question must be non-empty")
    return _PROMPT_HEAD + rep.text + _PROMPT_MID + question + _PROMPT_TAIL


def validate_chain(steps: list[ProcessStep]) -> bool:
    """True when every step after the first consumes a previously defined
    output variable or the document variable. Only an identifier counts as
    defined, so an argument in ``defined`` is an identifier itself."""
    defined = {DOCUMENT_VAR}
    for pos, step in enumerate(steps):
        if pos > 0 and defined.isdisjoint(step.args):
            return False
        if _IDENT_RE.match(step.output_var):
            defined.add(step.output_var)
    return True


def parse_response(completion: str) -> ExecutionProcess:
    """Extract CoT lines, the first fenced pseudo-code block, and the answer
    line; raises ParseFailure when the contract is not met."""
    fence = _FENCE_RE.search(completion)
    if not fence:
        raise ParseFailure("no pseudo-code block")
    try:
        steps = parse_pseudocode(fence.group(1))
    except GrammarViolation as exc:
        raise ParseFailure(f"grammar: {exc}") from exc
    if not steps:
        raise ParseFailure("empty pseudo-code block")
    if not validate_chain(steps):
        raise ParseFailure("broken step chaining")
    # the lines before the fence, rejoined at "\n" alone, are scanned at once
    cot = [text.strip() for text in
           _COT_LINE_RE.findall("\n".join(completion[:fence.start()].splitlines()))]
    answers = _ANSWER_RE.findall(completion)
    final_answer = answers[-1].strip() if answers else None
    return ExecutionProcess(cot=cot, steps=steps, final_answer=final_answer or None)


# ---------------------------------------------------------------------------
# generation loop


def generate_process(record: InstructionRecord, rep: DocumentRepresentation,
                     backend: GenerationBackend,
                     temperature: float = 0.0) -> ExecutionProcess | Discarded:
    """Run the retry loop for one record; never more than MAX_ATTEMPTS calls."""
    prompt = build_prompt(rep, record.question)
    # only the message is kept: holding the exception would tie its
    # traceback to this frame in a reference cycle, one per failed record
    last_error: str | None = None
    last_completion: str | None = None
    transport_failed_last = False
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            completion = backend.complete(prompt, temperature, attempt=attempt)
        except BackendError as exc:
            last_error = str(exc)
            transport_failed_last = True
            continue
        transport_failed_last = False
        last_completion = completion
        try:
            process = parse_response(completion)
        except ParseFailure as exc:
            last_error = str(exc)
            continue
        process.attempts = attempt
        return process
    if transport_failed_last:
        raise BackendUnavailable(f"{record.record_id}: {last_error}")
    return Discarded(reason=last_error, attempts=MAX_ATTEMPTS, last_completion=last_completion)


def generate_all(records: list[InstructionRecord],
                 reps: dict[str, DocumentRepresentation],
                 backend: GenerationBackend, ledger: GenerationLedger,
                 temperature: float = 0.0,
                 max_inflight: int = 4) -> list[ExecutionProcess | Discarded]:
    """Generate concurrently and count each outcome in ``ledger``; results
    come back in input record order."""
    if max_inflight < 1:
        raise ValueError("max_inflight must be >= 1")

    def one(record: InstructionRecord) -> ExecutionProcess | Discarded:
        return generate_process(record, reps[record.page_id], backend, temperature)

    if max_inflight == 1 or len(records) <= 1:
        results = [one(r) for r in records]
    else:
        with ThreadPoolExecutor(max_workers=max_inflight) as pool:
            results = list(pool.map(one, records))
    for record, result in zip(records, results):
        count = ledger.record_discard if isinstance(result, Discarded) else ledger.record_success
        count(record.record_id, result.attempts)
    return results


# ---------------------------------------------------------------------------
# backends

_MOCK_VERBS = ("find", "extract", "locate", "get", "read", "compare")
_MOCK_NOUNS = ("table", "row", "value", "title", "item", "total", "header", "date")


class MockBackend:
    """Deterministic offline backend; the completion is a pure function of
    the prompt text. A fixed fraction of completions opens with the same two
    steps so the downstream association stage has something to aggregate."""

    def complete(self, prompt: str, temperature: float = 0.0, attempt: int = 1) -> str:
        seed = int.from_bytes(hashlib.sha256(prompt.encode("utf-8")).digest()[:8], "big")
        rng = random.Random(seed)
        n_steps = rng.randint(2, 4)
        names: list[str] = []
        if rng.random() < 0.3:
            # fixed opening pair, outside the random vocabulary, so large mock
            # corpora give the association stage something to merge
            names += ["scan_list", "pick_entry"]
        while len(names) < n_steps:
            names.append(f"{rng.choice(_MOCK_VERBS)}_{rng.choice(_MOCK_NOUNS)}")
        cot = [f"{i}. Apply {name} to narrow down the answer."
               for i, name in enumerate(names, start=1)]
        code = []
        prev = DOCUMENT_VAR
        for i, name in enumerate(names, start=1):
            var = f"r{i}"
            args = prev if rng.random() < 0.7 else f'{prev}, "{rng.choice(_MOCK_NOUNS)}"'
            code.append(f"step{i}: {var} = {name}({args})")
            prev = var
        answer = f"{rng.choice(_MOCK_NOUNS)} {rng.randint(1, 999)}"
        return "\n".join(cot) + "\n\n```\n" + "\n".join(code) + "\n```\n\n" \
            + f"{ANSWER_PREFIX} {answer}\n"


class RemoteBackend(JsonPost):
    """Chat-completion HTTP adapter; the wire-format mapping is isolated here."""

    env, what, error = "PROCTAG_BACKEND", "backend", BackendError

    def __init__(self, url: str | None = None, api_key: str | None = None,
                 model: str = "default", timeout: float = 60.0,
                 session: requests.Session | None = None):
        super().__init__(url, api_key, timeout, session)
        self.model = model

    def complete(self, prompt: str, temperature: float = 0.0, attempt: int = 1) -> str:
        payload: dict[str, Any] = {"model": self.model,
                                   "messages": [{"role": "user", "content": prompt}],
                                   "temperature": temperature}
        return self._post(payload, lambda reply: reply["choices"][0]["message"]["content"])


# the temperature last keyed and its JSON text: a run keys every prompt with
# one temperature object, so json.dumps writes it once. The object itself is
# matched, since 1 == 1.0 and -0.0 == 0.0 have other texts
_keyed_temperature: tuple[float, str] = (0.0, "0.0")


def _cache_key(prompt: str, temperature: float, attempt: int) -> str:
    """SHA-256 of ``json.dumps`` of the prompt, temperature and attempt
    with sorted keys and ``ensure_ascii=False``, put together from the JSON
    text of each value: the prompt, a page of text, is encoded once by
    ``encode_basestring``, the string encoder ``json.dumps`` uses. The key
    keeps a ``max_tokens`` of null, a parameter since removed, so that caches
    filled before still replay; ``json.dumps`` writes an int temperature as
    ``1``, not ``1.0``."""
    global _keyed_temperature
    keyed = _keyed_temperature
    if keyed[0] is not temperature:
        # one tuple, swapped whole, so a thread never reads half of it
        keyed = _keyed_temperature = (temperature, json.dumps(temperature))
    material = (f'{{"attempt": {attempt}, "max_tokens": null, '
                f'"prompt": {encode_basestring(prompt)}, "temperature": {keyed[1]}}}')
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class CachingBackend(Store):
    """Content-addressed completion cache around an inner backend, keyed by
    prompt, temperature and attempt index, so retries are cached apart."""

    error = BackendError  # a replay-only miss counts as a transport failure
    what, value_key, value_type = "completion", "completion", str

    def complete(self, prompt: str, temperature: float = 0.0, attempt: int = 1) -> str:
        key = _cache_key(prompt, temperature, attempt)
        completion = self._entry(key)
        if completion is None:
            completion = self._fill(key, f"cache miss for key {key}", lambda inner: {
                "prompt": prompt,
                "completion": inner.complete(prompt, temperature, attempt=attempt)})
        return completion
