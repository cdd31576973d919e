"""Command-line pipeline: the stage commands render, generate, tag, sample,
assess and pipeline, and eval.

One table, :data:`STAGES`, drives every stage command; its rows are the
stages in chain order. A command runs consecutive rows and reads only the
first row's input: render the record file, any other row the artifact of the
stage before it, named in the output directory's ``manifest.json`` (generate
also reads the records, but no page file). Each row hands its result to the
next in memory, so ``pipeline`` (render through sample) reads the record file
once and writes the same artifacts, byte for byte, as the stages run one by
one. Exit codes: 0 success, 1 data error, 2 usage error.

Each stage writes immutable artifacts named ``<stage>-<digest>.<ext>`` (digest
of the file content), reproduced byte for byte over unchanged inputs. JSONL
artifacts are streamed to disk and read back a line at a time. A row's
artifacts reach the manifest in one update, under an exclusive lock on the
output directory, so rows writing one directory at once all land, each as a
whole; a row that fails deletes the files it added and leaves the directory
as it was.

``render`` and, with the mock or cache backend, ``generate`` run on every
CPU the process may use (``os.sched_getaffinity``). Their page files or
records are split into chunks of :data:`CHUNK`, which forked worker
processes turn into encoded artifact lines (plus the representations, or
each record's outcome and raw tag profile); the parent writes the chunks in
input order, so the artifacts are those of a single-CPU run. With one CPU or
one chunk no worker starts. A worker's error is re-raised in the parent, and
a worker that dies ends the command with exit 1. The remote backend overlaps
its calls on ``generation.max_inflight`` threads instead.

:func:`run` pauses Python's automatic cyclic garbage collection while the
command runs and restores the caller's setting afterwards. The records,
pages and profiles a command holds form no reference cycles, so the
collector's full passes over that heap free nothing; they cost about a
sixth of a 20k-record mock pipeline. Reference counting frees everything
else as usual, and no stage leaves per-record cyclic garbage behind.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import gc
import hashlib
import os
import sys
import threading
from concurrent.futures import BrokenExecutor
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, get_args

from . import assess as assess_mod
from . import procgen, tagnorm, tagparse
from .config import PipelineConfig, SamplingConfig, load_config, schema, set_key
from .errors import ProcTagError
from .ingest import (InstructionRecord, IoFailure, MalformedLine, MissingPage,
                     atomic_write_text, checked, dumps_json, invalid, load_page, load_records,
                     read_json, read_jsonl, read_lines, read_records)
from .layout import associate, clean_inputs
from .metrics import Prediction, anls, kappa_report
from .render import (PLAINTEXT, SPATIAL, DocumentRepresentation,
                     render_doclayprompt, render_plaintext, render_spatial)

MANIFEST = "manifest.json"

# items per task of _chunk_map: enough that a task's results cross the
# process boundary as one sizeable pickle, few enough that every worker
# stays busy to the end
CHUNK = 256

# one record's generation outcome as a worker hands it back: whether it was
# discarded, its attempts, and its record id, raw tags and their source, of
# which the parent builds the raw tag profile (a plain tuple pickles in a
# fifth of a profile's time)
Outcome = tuple[bool, int, str, list[str], str]

# what render hands to generate: the records and their pages' representations
Rendered = tuple[list[InstructionRecord], dict[str, DocumentRepresentation]]


# ---------------------------------------------------------------------------
# stage artifact plumbing


@contextlib.contextmanager
def _locked(out_dir: Path) -> Iterator[None]:
    # the lock is held on the directory itself, so it adds no file to it
    dir_fd = os.open(out_dir, os.O_RDONLY)
    try:
        fcntl.flock(dir_fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(dir_fd)  # releases the lock


@contextlib.contextmanager
def _row_writer(out_dir: Path) -> Iterator[Callable[..., Path]]:
    """One row's ``write``: each call writes one artifact, and one manifest
    update under the directory lock names them all once the row returns. If
    the row or that update raises, each file the row wrote that neither existed
    when it started nor is in the manifest goes, as does a directory it made.
    Another row's rollback may so delete a file this row wrote with the same
    bytes: a written file missing at the update is an :class:`IoFailure`
    naming it, and this row rolls back too."""
    made = not out_dir.exists()
    before = set() if made else set(os.listdir(out_dir))
    written: dict[str, str] = {}
    manifest_path = out_dir / MANIFEST

    def write(stage: str, content: str | Iterable[str], ext: str) -> Path:
        # content may arrive line by line: the largest artifacts are then
        # streamed to disk, never held whole in memory
        out_dir.mkdir(parents=True, exist_ok=True)
        path = atomic_write_text(out_dir / f"{stage}.{ext}", content,
                                 name=lambda digest: f"{stage}-{digest[:12]}.{ext}")
        written[stage] = path.name
        return path

    try:
        yield write
        with _locked(out_dir):
            gone = next((name for name in written.values() if not (out_dir / name).exists()),
                        None)
            if gone is not None:
                raise IoFailure(f"stage artifact {out_dir / gone} was deleted before the "
                                "manifest named it")
            manifest = _manifest(manifest_path) if manifest_path.exists() else {}
            atomic_write_text(manifest_path, dumps_json({**manifest, **written}) + "\n")
    except BaseException:
        if out_dir.exists():
            with _locked(out_dir):
                named = _manifest(manifest_path).values() if manifest_path.exists() else ()
                for name in set(written.values()) - before - set(named):
                    (out_dir / name).unlink(missing_ok=True)
            if made:
                with contextlib.suppress(OSError):  # another writer may have filled it
                    out_dir.rmdir()
        raise


def _read_stage(output_dir: Path, stage: str) -> Path:
    manifest_path = output_dir / MANIFEST
    if not manifest_path.exists():
        raise IoFailure(f"no manifest in {output_dir}; run earlier stages first")
    manifest = _manifest(manifest_path)
    if stage not in manifest:
        raise IoFailure(f"stage {stage!r} not in {manifest_path}; run it first")
    path = output_dir / manifest[stage]
    if not path.exists():
        raise IoFailure(f"stage artifact {path} is missing")
    return path


def _manifest(path: Path) -> dict[str, str]:
    """The stage -> artifact name index in a manifest file. Any other
    content, or a name that is not a bare file name (empty, ``.``, ``..``
    or holding a path separator, so naming a file in another directory), is
    an :class:`IoFailure` naming the file."""
    manifest = read_json(path, "manifest")
    if type(manifest) is not dict or not all(
            type(name) is str and name not in ("", ".", "..") and os.sep not in name
            for name in manifest.values()):
        raise IoFailure(f"manifest {path} is not an object of artifact names")
    return manifest


def _jsonl(objs: Iterable[dict[str, Any]]) -> Iterable[str]:
    return (dumps_json(obj) + "\n" for obj in objs)


# the function and items of the running _chunk_map, which forked workers inherit
_chunk_task: tuple[Callable[[list], Any], list] | None = None


def _run_chunk(bounds: tuple[int, int]) -> Any:
    fn, items = _chunk_task
    return fn(items[bounds[0]:bounds[1]])


def _chunk_map(fn: Callable[[list], Any], items: list) -> Iterator[Any]:
    """``fn(chunk)`` for consecutive ``CHUNK``-item chunks of ``items``, in
    order, computed on every CPU this process may run on.

    The workers are forked, so they inherit ``fn`` and ``items``: only chunk
    bounds go out and only chunk results come back. With one CPU or one
    chunk no worker starts and every chunk runs in this process; so too
    while another thread runs, since a fork copies no thread but every
    lock, which a worker could then wait on forever.
    """
    global _chunk_task
    bounds = [(lo, min(lo + CHUNK, len(items))) for lo in range(0, len(items), CHUNK)]
    workers = min(len(os.sched_getaffinity(0)), len(bounds))
    if workers <= 1 or threading.active_count() > 1:
        yield from (fn(items[lo:hi]) for lo, hi in bounds)
        return
    # imported only here: loading multiprocessing adds about 20 ms to every command
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _chunk_task = (fn, items)
    try:
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            yield from pool.map(_run_chunk, bounds)
    finally:
        _chunk_task = None


# ---------------------------------------------------------------------------
# config / flag plumbing


# config keys whose flag is not named after the key itself
_RENAMED = {"output_dir": "out", "gen_cache_dir": "cache_dir"}

# argparse dest -> (config section, key); every config key has a flag
CONFIG_FLAGS = {_RENAMED.get(f.name, f.name): (section, f.name)
                for section, f, _hint in schema()}


def _effective_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    for flag, (section, key) in CONFIG_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            set_key(cfg, section, key, value)
    return cfg


def _render_page(page, cfg: PipelineConfig) -> DocumentRepresentation:
    style = cfg.render.style
    kwargs = {"max_chars": cfg.render.max_chars,
              "row_tolerance_factor": cfg.layout.row_tolerance_factor}
    if style == PLAINTEXT:
        return render_plaintext(page, **kwargs)
    if style == SPATIAL:
        return render_spatial(page, **kwargs)
    cleaned = clean_inputs(page, nms_iou_threshold=cfg.layout.nms_iou_threshold,
                           row_tolerance_factor=cfg.layout.row_tolerance_factor)
    return render_doclayprompt(associate(cleaned), page, **kwargs)


def _make_backend(cfg: PipelineConfig) -> procgen.GenerationBackend:
    kind = cfg.generation.backend
    if kind == "mock":
        return procgen.MockBackend()
    # cache: replay only; remote: fill the cache from the endpoint
    inner = procgen.RemoteBackend(model=cfg.generation.model) if kind == "remote" else None
    return procgen.CachingBackend(cfg.paths.gen_cache_dir, inner=inner)


def _make_embedder(cfg: PipelineConfig) -> tagnorm.EmbeddingProvider:
    kind = cfg.tagging.embedder
    if kind == "hashing":
        return tagnorm.HashingEmbedder()
    inner = tagnorm.RemoteEmbedder() if kind == "remote" else None
    return tagnorm.CachingEmbedder(cfg.paths.embed_cache_dir, inner=inner)


# ---------------------------------------------------------------------------
# stages: each ``<row>_stage(input, cfg, write[, backend, embedder or sample request])``
# writes its artifact(s) by ``write(stage, content, ext)`` and returns the next row's
# input and its summary; one manifest update names them all, the summary is printed
# only once it has, and a failed row leaves the directory as it was


def render_stage(loaded: tuple[list[InstructionRecord], dict[str, Path]],
                 cfg: PipelineConfig, write: Callable[..., Path],
                 ) -> tuple[Rendered, str]:
    """Parse and render the page file of every page the records reference;
    returns the records and the representations by page id. A page file
    whose ``page_id`` is not the one it is named after is an :class:`IoFailure`."""
    records, page_files = loaded

    def render_chunk(files: list[tuple[str, Path]]) -> tuple[list[DocumentRepresentation], str]:
        # each page file is parsed in the worker that renders it
        reps = [_render_page(load_page(path, page_id), cfg) for page_id, path in files]
        return reps, "".join(_jsonl(rep.to_dict() for rep in reps))

    reps: dict[str, DocumentRepresentation] = {}

    def lines() -> Iterator[str]:
        for chunk_reps, text in _chunk_map(render_chunk, list(page_files.items())):
            reps.update((rep.page_id, rep) for rep in chunk_reps)
            yield text

    path = write("render", lines(), "jsonl")
    return (records, reps), f"rendered {len(reps)} pages -> {path}"


def _generate_line(rec: InstructionRecord, block: str,
                   result: procgen.ExecutionProcess | procgen.Discarded) -> str:
    """A record's generate line as ``dumps_json`` writes it, from each value's JSON
    text as in :func:`_tags_lines`: the input annotations less the keys the line
    sets, the page's ``representation`` (``block``) and the result's block."""
    enc = encode_basestring
    key = "discarded" if isinstance(result, procgen.Discarded) else "process"
    if rec.annotations:
        texts = {name: dumps_json(value) for name, value in rec.annotations.items()
                 if name not in ("discarded", "process", "representation")}
        texts.update({key: result.to_json(), "representation": block})
        ann = ", ".join(f"{enc(name)}: {texts[name]}" for name in sorted(texts))
    else:  # both keys sort before "representation"
        ann = f'"{key}": {result.to_json()}, "representation": {block}'
    return (f'{{"annotations": {{{ann}}}, "answers": [{", ".join(map(enc, rec.answers))}], '
            f'"page_id": {enc(rec.page_id)}, "question": {enc(rec.question)}, '
            f'"record_id": {enc(rec.record_id)}}}\n')


def _encode_generated(pairs: Iterable[tuple[InstructionRecord,
                                            procgen.ExecutionProcess | procgen.Discarded]],
                      reps: dict[str, DocumentRepresentation]) -> tuple[str, list[Outcome]]:
    """The generate lines of some records and each one's outcome; each
    page's representation block is encoded once per call."""
    lines, outcomes = [], []
    blocks: dict[str, str] = {}
    for rec, result in pairs:
        block = blocks.get(rec.page_id)
        if block is None:
            rep = reps[rec.page_id]
            block = blocks[rec.page_id] = dumps_json({
                "style": rep.style, "token_count": rep.token_count,
                "digest": hashlib.sha256(rep.text.encode("utf-8")).hexdigest()[:16]})
        lines.append(_generate_line(rec, block, result))
        profile = _raw_profile(rec.record_id, result)
        outcomes.append((isinstance(result, procgen.Discarded), result.attempts,
                         rec.record_id, profile.tags, profile.source))
    return "".join(lines), outcomes


def generate_stage(rendered: Rendered, cfg: PipelineConfig, write: Callable[..., Path],
                   backend: procgen.GenerationBackend) -> tuple[list[tagnorm.TagProfile], str]:
    """Generate one execution process per record and write them with the
    ledger; returns each record's raw tag profile. A record whose page has no
    representation is a :class:`MissingPage`."""
    records, reps = rendered
    unrendered = next((rec.page_id for rec in records if rec.page_id not in reps), None)
    if unrendered is not None:
        raise MissingPage(unrendered)
    temperature = cfg.generation.temperature
    ledger = procgen.GenerationLedger()
    remote = cfg.generation.backend == "remote"
    chunks: Iterable[tuple[str, list[Outcome]]]
    if remote:
        # only the remote backend waits on the network: its calls overlap on
        # threads, generate_all counts each outcome, and each record is
        # encoded as it is written
        results = procgen.generate_all(records, reps, backend, ledger, temperature=temperature,
                                       max_inflight=cfg.generation.max_inflight)
        chunks = (_encode_generated([pair], reps) for pair in zip(records, results))
    else:
        # mock and cache replay compute in Python, so they run on every CPU
        def generate_chunk(recs: list[InstructionRecord]) -> tuple[str, list[Outcome]]:
            return _encode_generated(
                ((rec, procgen.generate_process(rec, reps[rec.page_id], backend, temperature))
                 for rec in recs), reps)

        chunks = _chunk_map(generate_chunk, records)

    profiles: list[tagnorm.TagProfile] = []

    def lines() -> Iterator[str]:
        for text, outcomes in chunks:
            for discarded, attempts, rid, tags, source in outcomes:
                if not remote:
                    count = ledger.record_discard if discarded else ledger.record_success
                    count(rid, attempts)
                profiles.append(tagnorm.TagProfile(rid, tags, source))
            yield text

    path = write("generate", lines(), "jsonl")
    write("ledger", dumps_json(ledger.to_dict()) + "\n", "json")
    rate = ledger.discarded / ledger.total if ledger.total else 0.0
    return profiles, (f"generated {ledger.succeeded}/{ledger.total} processes "
                      f"(discard rate {rate:.4f}) -> {path}")


def _generated(obj: dict[str, Any]) -> tuple[str, procgen.ExecutionProcess | procgen.Discarded]:
    """The ``(record_id, process or discard)`` of one generate artifact line;
    a ValueError names the first field missing or of the wrong type."""
    rid, ann = checked(obj, "", record_id=str, annotations=dict)
    if ("process" in ann) == ("discarded" in ann):
        raise ValueError("annotations must hold exactly one of 'process' and 'discarded'")
    if "process" in ann:
        return rid, procgen.ExecutionProcess.from_dict(ann["process"], "annotations.process")
    return rid, procgen.Discarded(rid, *checked(ann["discarded"], "annotations.discarded",
                                                reason=str, attempts=int,
                                                last_completion=(str, type(None))))


def _raw_profile(rid: str, result: procgen.ExecutionProcess | procgen.Discarded,
                 ) -> tagnorm.TagProfile:
    """One record's raw tags, from its process or from the last completion
    of a discarded one."""
    steps = result.steps if isinstance(result, procgen.ExecutionProcess) else None
    completion = result.last_completion if isinstance(result, procgen.Discarded) else None
    return tagparse.extract_function_names(rid, steps=steps, completion=completion)


def _tags_lines(raw: list[tagnorm.TagProfile], *later: list[list[str]]) -> Iterator[str]:
    """The ``tags_raw`` line of each raw profile or, given its filtered,
    clustered and aggregated tag lists too, its ``tags`` line, whose
    ``emptied_by_filter`` says that the raw list has a tag and the filtered
    list none.

    Each line equals ``dumps_json`` of ``{"record_id": ..., "annotations":
    {"tags": {...}}}`` plus a newline, byte for byte. It is put together
    from the JSON text of each value, with the keys in sorted order and
    ``encode_basestring``, the string encoder ``dumps_json`` itself uses. A
    stage's tag list equal to the stage's before it reuses that list's text,
    so each distinct list of a record is encoded once.
    """
    for p, *lists in zip(raw, *later):
        texts = []
        prev: list[str] | None = None
        for tags in (p.tags, *lists):
            if tags != prev:
                prev = tags
                text = "[" + ", ".join(map(encode_basestring, tags)) + "]"
            texts.append(text)
        tail = (f'"raw": {texts[0]}, "source": {encode_basestring(p.source)}}}}}, '
                f'"record_id": {encode_basestring(p.record_id)}}}\n')
        if later:
            emptied = "true" if p.tags and not lists[0] else "false"
            tail = (f'"aggregated": {texts[3]}, "clustered": {texts[2]}, '
                    f'"emptied_by_filter": {emptied}, "filtered": {texts[1]}, ' + tail)
        yield '{"annotations": {"tags": {' + tail


def extract_stage(profiles: list[tagnorm.TagProfile], cfg: PipelineConfig,
                  write: Callable[..., Path]) -> tuple[list[tagnorm.TagProfile], str]:
    """Write the records' raw tag profiles; returns them."""
    path = write("tags_raw", _tags_lines(profiles), "jsonl")
    return profiles, f"extracted raw tags for {len(profiles)} records -> {path}"


def normalize_stage(profiles: list[tagnorm.TagProfile], cfg: PipelineConfig,
                    write: Callable[..., Path],
                    embedder: tagnorm.EmbeddingProvider) -> tuple[list[tagnorm.TagProfile], str]:
    """Filter, cluster and aggregate the raw profiles, and write every
    stage's tags per record, the vocabulary report and the aggregated
    profiles; returns the aggregated profiles."""
    result = tagnorm.normalize_corpus(
        profiles, embedder,
        min_count=cfg.tagging.min_count,
        dbscan_eps=cfg.tagging.dbscan_eps,
        dbscan_min_pts=cfg.tagging.dbscan_min_pts,
        min_support=cfg.tagging.min_support,
        min_confidence=cfg.tagging.min_confidence)
    vocab_report = {
        "stages": {stage: dict(sorted(v.items()))
                   for stage, v in result.vocabularies.items()},
        "clusters": {str(cid): {"representative": result.assignment.representatives[cid],
                                "members": members}
                     for cid, members in result.assignment.members().items()},
        "merges": result.merges,
    }
    path = write("tags", _tags_lines(
        profiles, *(result.stage_tags[stage] for stage in tagnorm.STAGES[1:])), "jsonl")
    write("vocab", dumps_json(vocab_report) + "\n", "json")
    write("profiles", _profiles_lines(result.profiles), "jsonl")
    return result.profiles, (f"normalized tags for {len(profiles)} records "
                             f"({len(vocab_report['merges'])} merges) -> {path}")


def _tags_raw_profile(obj: dict[str, Any]) -> tagnorm.TagProfile:
    """The raw profile of a ``tags_raw`` line; a ValueError names the first
    field missing or of the wrong type. Each tag is interned: a corpus
    repeats a few thousand names, and decoding makes each one anew."""
    rid, ann = obj.get("record_id"), obj.get("annotations")
    if type(rid) is not str:
        raise invalid("record_id")
    if type(ann) is not dict:
        raise invalid("annotations")
    tags = ann.get("tags")
    if type(tags) is not dict:
        raise invalid("annotations.tags")
    raw, source = tags.get("raw"), tags.get("source")
    if type(raw) is not list or not {str}.issuperset(map(type, raw)):
        raise invalid("annotations.tags.raw")
    if type(source) is not str:
        raise invalid("annotations.tags.source")
    return tagnorm.TagProfile(rid, list(map(sys.intern, raw)), source)


def _profiles_lines(profiles: list[tagnorm.TagProfile]) -> Iterator[str]:
    """The ``profiles`` artifact of aggregated profiles: ``dumps_json`` of
    the vocabulary, their tags in order of first occurrence, then one
    ``dumps_json([record_id, [tag indices]])`` per profile, each line ending
    in a newline."""
    vocab = list(dict.fromkeys(chain.from_iterable(p.tags for p in profiles)))
    index = {tag: str(i) for i, tag in enumerate(vocab)}.__getitem__
    yield dumps_json(vocab) + "\n"
    for p in profiles:
        yield f'[{encode_basestring(p.record_id)}, [{", ".join(map(index, p.tags))}]]\n'


def read_profiles(path: Path) -> list[tagnorm.TagProfile]:
    """The aggregated profiles in a ``profiles`` artifact, read by
    :func:`read_jsonl` as every line file is, so a blank line is skipped.
    An empty file, a first line that is not a list of strings, a row that is
    not ``[str, [int, ...]]``, a tag index that is a bool, negative or past
    the vocabulary, or a record_id on an earlier row is an :class:`IoFailure`
    naming the file and line."""
    profile = tagnorm.TagProfile
    vocab: list[str] | None = None

    def row(value: Any) -> tagnorm.TagProfile | None:
        nonlocal vocab
        if vocab is None:  # the first line
            if type(value) is not list or not set(map(type, value)) <= {str}:
                raise ValueError("the vocabulary is not a list of strings")
            vocab = value
            return None
        if type(value) is list and len(value) == 2:
            rid, indices = value
            if type(rid) is str and type(indices) is list and (
                    not indices or set(map(type, indices)) == {int}
                    and 0 <= min(indices) and max(indices) < len(vocab)):
                return profile(rid, [vocab[i] for i in indices])
        raise ValueError("not [record_id, [tag index, ...]] "
                         f"with every index in [0, {len(vocab)})")

    rows = read_jsonl(path, row)
    next(rows, None)  # the vocabulary line
    profiles = list(rows)
    if vocab is None:  # what the decoder says of an empty first line
        raise MalformedLine(path, 1, "not valid JSON (Expecting value: line 1 column 1 (char 0))")
    if len({p.record_id for p in profiles}) < len(profiles):
        first: dict[str, int] = {}
        k = next(k for k, p in enumerate(profiles) if first.setdefault(p.record_id, k) != k)
        rid = profiles[k].record_id
        # row k is on the (k + 2)th line that is not blank
        line_nos = [line_no for line_no, line in read_lines(path) if line.strip()]
        raise MalformedLine(path, line_nos[k + 1], f"repeated record_id {rid!r} "
                                                   f"(first on line {line_nos[first[rid] + 1]})")
    return profiles


def sample_stage(profiles: list[tagnorm.TagProfile], cfg: PipelineConfig,
                 write: Callable[..., Path], spec: SamplingConfig) -> tuple[None, str]:
    """Select a subset by the sample request and write the sample report."""
    selected = assess_mod.sample(profiles, spec)
    chosen = set(selected)
    subset = [p for p in profiles if p.record_id in chosen]
    report = {
        "mode": spec.mode,
        "selected": selected,
        "count": len(selected),
        "assessment": assess_mod.assess_dataset(subset) if subset else None,
        "coverage": assess_mod.tag_coverage(subset, profiles) if subset else None,
    }
    path = write("sample", dumps_json(report) + "\n", "json")
    return None, f"selected {len(selected)}/{len(profiles)} records -> {path}"


def assess_stage(profiles: list[tagnorm.TagProfile], cfg: PipelineConfig,
                 write: Callable[..., Path]) -> tuple[None, str]:
    """Write the assessment report of the profiles; it is also the summary."""
    text = dumps_json(assess_mod.assess_dataset(profiles))
    write("assess", text + "\n", "json")
    return None, text


# ---------------------------------------------------------------------------
# the stage table: each stage command runs a run of consecutive rows


class Stage(NamedTuple):
    """One row of :data:`STAGES`; it runs ``<name>_stage``, found by name at run time."""

    name: str
    sections: tuple[str, ...]  # the config sections it takes flags for
    upstream: str | None  # the manifest entry it reads when it runs first
    # its input when it runs first, from that entry's artifact (render: the dataset)
    read: Callable[[Path | None, PipelineConfig], Any]
    # a backend, embedder or sample request it also needs, built before any input is read
    tool: Callable[[PipelineConfig], Any] | None = None


STAGES = {row.name: row for row in (
    Stage("render", ("render", "layout"), None,
          lambda _, cfg: load_records(cfg.paths.dataset, cfg.paths.pages)),
    # the pages come from the render artifact: no page file is read
    Stage("generate", ("generation",), "render", lambda path, cfg: (
        read_records(cfg.paths.dataset),
        {rep.page_id: rep
         for rep in read_jsonl(path, DocumentRepresentation.from_dict, key="page_id")}),
          _make_backend),
    Stage("extract", (), "generate", lambda path, _: list(
        read_jsonl(path, lambda obj: _raw_profile(*_generated(obj)), key="record_id"))),
    Stage("normalize", ("tagging",), "tags_raw", lambda path, _: list(
        read_jsonl(path, _tags_raw_profile, key="record_id")), _make_embedder),
    Stage("sample", ("sampling",), "profiles", lambda path, _: read_profiles(path),
          lambda cfg: assess_mod.checked_request(cfg.sampling)),
    Stage("assess", (), "profiles", lambda path, _: read_profiles(path)),
)}

# stage command -> its first and last row; any other runs the row it is named after
_RUNS = {"tag": ("extract", "normalize"), "pipeline": ("render", "sample")}


def _rows(command: str, stage: str = "all") -> list[Stage]:
    """The rows a command runs; ``stage`` narrows ``tag`` to one of its two."""
    first, last = _RUNS.get(command, (command, command)) if stage == "all" else (stage, stage)
    names = list(STAGES)
    return [STAGES[name] for name in names[names.index(first):names.index(last) + 1]]


def _run_stages(args: argparse.Namespace) -> int:
    """Run the command's rows: read the first row's input, then hand each
    row's result to the next in memory, so that each input is dropped once
    the row after it has consumed it. A row's summary is printed once its
    artifacts are in the manifest."""
    cfg = _effective_config(args)
    out_dir = Path(cfg.paths.output_dir)
    rows = _rows(args.command, getattr(args, "stage", "all"))
    first = rows[0]
    # a corrupt manifest, a missing upstream stage and a bad backend, embedder,
    # remote URL or sample request all fail here, before any input is read
    manifest = out_dir / MANIFEST
    if first.upstream is None and manifest.exists():
        _manifest(manifest)
    path = first.upstream and _read_stage(out_dir, first.upstream)
    tools = [(row.tool(cfg),) if row.tool else () for row in rows]
    data = first.read(path, cfg)
    for row, tool in zip(rows, tools):
        with _row_writer(out_dir) as write:
            data, summary = globals()[f"{row.name}_stage"](data, cfg, write, *tool)
        print(summary)
    return 0


# one name per stage command, which the parser looks up when it is built:
# a wrapper set on one of them runs for that command alone
cmd_render = cmd_generate = cmd_tag = cmd_sample = cmd_assess = cmd_pipeline = _run_stages


def _eval_input(path: str, field: str, valid: Callable[[Any], bool], expected: str,
                gold: str = "", golds: dict[str, Any] | None = None) -> dict[str, Any]:
    """record_id -> ``field`` of each line of an ``eval anls`` input. A line
    that is not an object with a string ``record_id`` and a ``valid`` ``field``,
    whose id repeats or is not in ``golds`` (read from ``gold``) is an error."""

    def row(obj: dict[str, Any]) -> tuple[str, Any]:
        rid = obj.get("record_id")
        if not isinstance(rid, str):
            raise invalid("record_id")
        # a prediction for a record the gold file lacks is for another dataset
        if golds is not None and rid not in golds:
            raise ValueError(f"record_id {rid!r} is not in {gold}")
        if not valid(obj.get(field)):
            raise ValueError(f"{field!r} must be {expected}")
        return rid, obj[field]

    return dict(read_jsonl(path, row, key="record_id"))


def _answer_list(value: Any) -> bool:
    return (isinstance(value, list) and bool(value)
            and all(isinstance(answer, str) for answer in value))


def cmd_eval(args: argparse.Namespace) -> int:
    if args.metric == "anls":
        golds = _eval_input(args.gold, "answers", _answer_list, "a non-empty list of strings")
        predicted = _eval_input(args.pred, "predicted", lambda v: isinstance(v, str),
                                "a string", args.gold, golds)
        missing = next((rid for rid in golds if rid not in predicted), None)
        if missing is not None:
            raise ProcTagError(f"{args.pred}: no prediction for record {missing!r}")
        predictions = [Prediction(record_id=rid, predicted=predicted[rid], golds=answers)
                       for rid, answers in golds.items()]
        score = anls(predictions, tau=args.tau)
        print(dumps_json({"anls": score, "count": len(predictions), "tau": args.tau}))
        return 0
    counts = read_json(Path(args.matrix), "matrix file")
    try:
        report = kappa_report(counts)
    except (ProcTagError, ValueError) as exc:
        raise ProcTagError(f"{args.matrix}: {exc}") from exc
    print(dumps_json(report))
    return 0


# ---------------------------------------------------------------------------
# parser


def _command(sub: Any, name: str, help_text: str) -> argparse.ArgumentParser:
    """Add stage command ``name`` with one flag per config key of its rows'
    sections, typed and restricted as the config field is."""
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(func=globals()[f"cmd_{name}"])
    p.add_argument("--config", help="YAML config file")
    sections = chain.from_iterable(row.sections for row in _rows(name))
    for group in ("paths", *dict.fromkeys(sections)):
        for section, f, hint in schema():
            if f.metadata.get("serves", section) != group:
                continue
            value_type = next(t for t in get_args(hint) or (hint,) if t is not type(None))
            dest = _RENAMED.get(f.name, f.name)
            p.add_argument("--" + dest.replace("_", "-"), dest=dest,
                           type=None if value_type is str else value_type,
                           choices=f.metadata.get("choices"), help=f.metadata.get("help"))
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proctag",
        description="Layout-aware document prompting and execution-process "
                    "tagging for instruction data curation")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "render", "render page representations")
    _command(sub, "generate", "generate execution processes")
    p = _command(sub, "tag", "extract and normalize process tags")
    p.add_argument("--stage", choices=("extract", "normalize", "all"), default="all")
    _command(sub, "sample", "select a subset by tag coverage")
    _command(sub, "assess", "report distinct tags and mean distinct tags per record")

    p = sub.add_parser("eval", help="score answers or rater agreement")
    ev = p.add_subparsers(dest="metric", required=True)
    pa = ev.add_parser("anls", help="average normalized Levenshtein similarity")
    pa.add_argument("--pred", required=True, help="JSONL of {record_id, predicted}")
    pa.add_argument("--gold", required=True, help="JSONL of {record_id, answers[]}")
    pa.add_argument("--tau", type=float, default=0.5)
    pa.set_defaults(func=cmd_eval)
    pk = ev.add_parser("kappa", help="chance-corrected agreement")
    pk.add_argument("--matrix", required=True,
                    help="JSON file: a square list of lists of finite non-negative counts")
    pk.set_defaults(func=cmd_eval)

    _command(sub, "pipeline", "run render -> generate -> tag -> sample")

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # cyclic collection is paused for the reason the module docstring gives;
    # the caller's state is restored, since tests call run() many times per process
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ProcTagError, ValueError, OverflowError, OSError, BrokenExecutor) as exc:
        # OverflowError: a page coordinate too large for a float or an int;
        # BrokenExecutor: a worker process of _chunk_map died
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    # run proctag.cli, not this copy: the pool pickles _run_chunk by module,
    # and a wrapper such as cProfile takes the __main__ name
    import proctag.cli
    proctag.cli.main()
