"""Pseudo-code parsing and function-name tag extraction.

Grammar, one step per line (the ``step<N>:`` prefix is optional)::

    step1: t = find_table(document)
    step2: v = extract_value(t, "Total")

Arguments are identifiers, quoted literals, or bare numbers. Tags are the
normalized function names in step order; when grammar parsing failed
upstream, a fallback scanner pulls ``identifier(`` call sites out of the raw
completion instead. A record's raw tags are a :class:`TagProfile`;
:mod:`proctag.tagnorm` normalizes their tag lists and gives back the
aggregated profiles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import ProcTagError


class GrammarViolation(ProcTagError):
    def __init__(self, line_no: int, line: str, reason: str = ""):
        self.line_no = line_no
        self.line = line
        msg = f"pseudo-code grammar violation on line {line_no}: {line!r}"
        super().__init__(f"{msg} ({reason})" if reason else msg)


class ProcessStep(NamedTuple):
    """``output_var = function_name(args...)`` at 1-based position ``index``."""

    index: int
    output_var: str
    function_name: str
    args: list[str]


@dataclass(slots=True)
class TagProfile:
    """A record's ordered tags, raw or aggregated, and where they came from."""

    record_id: str
    tags: list[str]
    source: str = "grammar"  # "grammar", "fallback" or "none" (no tag found)


_STEP_RE = re.compile(
    r"^(?:step\d+\s*:\s*)?([A-Za-z_]\w*)\s*=\s*([A-Za-z_]\w*)\s*\((.*)\)\s*$")
_ARG_RE = re.compile(r"^(?:[A-Za-z_]\w*|-?\d+(?:\.\d+)?)$")
# one argument: a quoted literal, an identifier or a number
_ARG_ITEM_RE = re.compile(r"\"[^\"]*\"|'[^']*'|[A-Za-z_]\w*|-?\d+(?:\.\d+)?")
# one whole line of a block that is a step whose arguments are each one that
# _ARG_ITEM_RE matches, with its first argument and the rest apart. Spaces stay
# within the line: only "\n" ends one here, and no other character at which
# str.splitlines ends a line is matched
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SPACE = rf"[^\S{_BREAKS}]"
_LINE_ARG = rf"\"[^\"{_BREAKS}]*\"|'[^'{_BREAKS}]*'|[A-Za-z_]\w*|-?\d+(?:\.\d+)?"
_STEP_LINE_RE = re.compile(
    rf"^{_SPACE}*(?:step\d+{_SPACE}*:{_SPACE}*)?([A-Za-z_]\w*){_SPACE}*="
    rf"{_SPACE}*([A-Za-z_]\w*){_SPACE}*\({_SPACE}*(?:({_LINE_ARG}){_SPACE}*"
    rf"((?:,{_SPACE}*(?:{_LINE_ARG}){_SPACE}*)*))?\){_SPACE}*$", re.MULTILINE)
_CALL_SITE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
_CAMEL_RE = re.compile(r"(?<=[a-z])(?=[A-Z])")

# control flow and builtins are not process semantics
STOP_WORDS = frozenset({
    "if", "elif", "else", "for", "while", "return", "print", "def", "class",
    "switch", "case", "function", "lambda", "assert", "raise", "try", "except",
    "with", "len", "range", "str", "int", "float", "bool", "list", "dict",
    "set", "tuple", "sum", "min", "max", "abs", "sorted", "and", "or", "not",
    "in", "is", "input", "output",
})


def _walk_args(raw: str, line_no: int, line: str) -> list[str]:
    """Split at commas outside quotes, one character at a time, and check
    each stripped argument."""
    args: list[str] = []
    buf: list[str] = []
    quote: str | None = None
    for ch in raw:
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            buf.append(ch)
        elif ch == ",":
            args.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    if quote:
        raise GrammarViolation(line_no, line, "unterminated quote")
    tail = "".join(buf).strip()
    if tail or args:
        args.append(tail)
    for arg in args:
        quoted = len(arg) >= 2 and arg[0] == arg[-1] and arg[0] in "\"'"
        if not arg or (not quoted and not _ARG_RE.match(arg)):
            raise GrammarViolation(line_no, line, f"bad argument {arg!r}")
    return args


def parse_pseudocode(block: str) -> list[ProcessStep]:
    """Parse a pseudo-code block into steps in textual order. When each of
    its lines is a step whose argument list the regex splits, one scan finds
    them all; any other block goes line by line, and a bad line is a
    :class:`GrammarViolation` naming it."""
    rows = _STEP_LINE_RE.findall(block)
    if len(rows) != block.count("\n") + (not block.endswith("\n")):
        return _parse_lines(block)
    # tuple.__new__ skips the Python-level __new__ of a NamedTuple
    return [tuple.__new__(ProcessStep, (index, output_var, function_name,
                                        [first, *_ARG_ITEM_RE.findall(rest)] if rest
                                        else [first] if first else []))
            for index, (output_var, function_name, first, rest) in enumerate(rows, start=1)]


def _parse_lines(block: str) -> list[ProcessStep]:
    """:func:`parse_pseudocode` one line of ``block.splitlines()`` at a time."""
    steps: list[ProcessStep] = []
    for line_no, raw_line in enumerate(block.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        m = _STEP_RE.match(line)
        if not m:
            raise GrammarViolation(line_no, line)
        output_var, function_name, raw_args = m.groups()
        steps.append(ProcessStep(index=len(steps) + 1, output_var=output_var,
                                 function_name=function_name,
                                 args=_walk_args(raw_args, line_no, line)))
    return steps


# distinct raw names whose normal form is kept: a corpus repeats a few dozen
# function names tens of thousands of times
NAME_CACHE_SIZE = 4096


@lru_cache(maxsize=NAME_CACHE_SIZE)
def normalize_name(raw: str) -> str:
    """Lowercase snake_case: camelCase split at case boundaries, characters
    outside [a-z0-9_] dropped, underscore runs collapsed, leading digits and
    underscores stripped. Results are cached; a name that leaves nothing,
    such as ``"123!!"``, normalizes to ``""``."""
    s = _CAMEL_RE.sub("_", raw).lower()
    s = re.sub(r"[^a-z0-9_]", "", s)
    s = re.sub(r"_+", "_", s).strip("_")
    return s.lstrip("0123456789_")


def collapse_adjacent(tags: list[str]) -> list[str]:
    """Collapse runs of identical adjacent tags to one (non-adjacent repeats
    are signal and stay)."""
    out: list[str] = []
    for tag in tags:
        if not out or out[-1] != tag:
            out.append(tag)
    return out


def scan_call_sites(text: str) -> list[str]:
    """Raw identifiers that appear directly before ``(`` in source order,
    minus the stop list."""
    return [name for name in _CALL_SITE_RE.findall(text)
            if name.lower() not in STOP_WORDS]


def extract_function_names(record_id: str, steps: list[ProcessStep] | None = None,
                           completion: str | None = None) -> TagProfile:
    """The raw profile of a record: tags from parsed steps when
    available, else from the fallback scanner over the raw completion. A
    name that normalizes to nothing is dropped; a record left with no tag
    gets an empty profile whose source is ``"none"``."""
    if steps:
        raw_names = [s.function_name for s in steps]
        source = "grammar"
    else:
        raw_names = scan_call_sites(completion or "")
        source = "fallback"
    tags = collapse_adjacent([tag for tag in map(normalize_name, raw_names) if tag])
    return TagProfile(record_id, tags, source if tags else "none")
