"""Per-layer spans recorded from outside the program.

``install`` replaces each traced function with a wrapper at the name its
callers look it up by (``proctag.cli.load_dataset`` is what the CLI calls,
not ``proctag.ingest.load_dataset``), so the program's own files stay
untouched. A wrapper records one span per call: its key, start, end, the
span that was open when it started, and whether it returned normally.

Spans started on a pool thread with nothing open on that thread take the
main thread's innermost open span as parent, which is the fan-out call that
is waiting for them.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("ingest", "layout", "render", "procgen", "tagparse", "tagnorm",
          "assess", "metrics", "cli")
CLI_STAGES = ("render", "generate", "tag", "sample", "assess", "eval", "pipeline")


def targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span key); the key's first part names the layer."""
    from proctag import assess, cli, procgen, tagnorm, tagparse

    return [
        (cli, "load_dataset", "ingest.load_dataset"),
        (cli, "clean_inputs", "layout.clean_inputs"),
        (cli, "associate", "layout.associate"),
        (cli, "render_plaintext", "render"),
        (cli, "render_spatial", "render"),
        (cli, "render_doclayprompt", "render"),
        (cli, "anls", "metrics.anls"),
        (procgen, "generate_all", "procgen.generate_all"),
        (procgen, "generate_process", "procgen.generate_process"),
        (procgen, "build_prompt", "procgen.build_prompt"),
        (procgen, "parse_response", "procgen.parse_response"),
        (procgen.MockBackend, "complete", "procgen.complete"),
        (procgen.CachingBackend, "complete", "procgen.complete"),
        (tagparse, "extract_function_names", "tagparse.extract"),
        (tagnorm, "normalize_corpus", "tagnorm.normalize_corpus"),
        (tagnorm, "tag_frequencies", "tagnorm.tag_frequencies"),
        (tagnorm, "frequency_filter", "tagnorm.frequency_filter"),
        (tagnorm.HashingEmbedder, "embed", "tagnorm.embed"),
        (tagnorm.CachingEmbedder, "embed", "tagnorm.embed"),
        (tagnorm, "dbscan", "tagnorm.dbscan"),
        (tagnorm, "apply_clusters", "tagnorm.apply_clusters"),
        (tagnorm, "mine_adjacent_pairs", "tagnorm.aggregate"),
        (tagnorm, "aggregate_pairs", "tagnorm.aggregate"),
        (assess, "sample", "assess.sample"),
        (assess, "random_sample", "assess.random_sample"),
        (assess, "assess_dataset", "assess.assess_dataset"),
        (assess, "tag_coverage", "assess.coverage"),
        (assess, "complexity", "assess.coverage"),
        (cli, "run", "cli.run"),
    ] + [(cli, f"cmd_{stage}", f"cli.{stage}") for stage in CLI_STAGES]


class Recorder:
    """Collects spans in memory; create it on the main thread."""

    def __init__(self) -> None:
        # (id, parent id, key, start, end, returned normally)
        self.spans: list[tuple[int, int | None, str, float, float, bool]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def wrap(self, key: str, fn):
        spans, ids, local, main_stack = self.spans, self._ids, self._local, self._main_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            sid = next(ids)
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, key, start, end, ok))

        return traced


def install() -> Recorder:
    """Wrap every target that exists; report the ones that do not."""
    recorder = Recorder()
    for owner, attr, key in targets():
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found, "
                  f"not traced", file=sys.stderr)
            continue
        setattr(owner, attr, recorder.wrap(key, fn))
    return recorder


def union(intervals) -> list[tuple[float, float]]:
    """Sorted, disjoint cover of the given (start, end) intervals."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def subtract(start: float, end: float,
             cover: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Parts of [start, end] outside a sorted, disjoint cover."""
    gaps = []
    at = start
    for s, e in cover:
        if s > at:
            gaps.append((at, min(s, end)))
        at = max(at, e)
        if at >= end:
            break
    if at < end:
        gaps.append((at, end))
    return gaps


def summarize(spans) -> dict:
    """Per key: calls, inclusive seconds, self seconds, calls that raised.
    Per layer: self seconds.

    A span's self time is its duration minus the union of its children's
    intervals, so children running concurrently on pool threads are not
    subtracted twice. A layer's self time is the union of its spans'
    self intervals, so concurrent spans of one layer count once. While
    concurrent threads work in one layer at a time, as proctag's pool
    threads do, the layers' self times add up to the wall time the spans
    cover.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _key, start, end, _ok in spans:
        if parent is not None:
            children[parent].append((start, end))
    keys: dict[str, dict[str, float]] = {}
    layer_gaps: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for sid, _parent, key, start, end, ok in spans:
        gaps = subtract(start, end, union(children.get(sid, ())))
        agg = keys.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += sum(e - s for s, e in gaps)
        agg["errors"] += not ok
        layer_gaps[key.split(".")[0]].extend(gaps)
    layers = {layer: sum(e - s for s, e in union(gaps)) for layer, gaps in layer_gaps.items()}
    return {"keys": keys, "layers": layers}
