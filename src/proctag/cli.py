"""Command-line pipeline: render, generate, tag, sample, assess, eval, and
the chained pipeline command.

Each stage writes one immutable artifact named ``<stage>-<digest>.<ext>``
under the output directory (digest of the file content) plus a
``manifest.json`` index, and reads only prior-stage artifacts through that
manifest. Re-running a stage over unchanged inputs reproduces its artifact
byte for byte. JSONL artifacts are streamed to disk a record or a chunk of
records at a time and hashed on the way, and read back a line at a time, so
none of them is ever held whole in memory. The manifest update is serialized by an exclusive lock
on the output directory, so stages writing one directory at once all land.
``pipeline`` loads the dataset once and hands each stage's results to the
next in memory; it writes the same artifacts, byte for byte, as running the
stages one by one. Exit codes: 0 success, 1 data error, 2 usage error.

``render`` and, with the mock or cache backend, ``generate`` run on every
CPU the process may use (``os.sched_getaffinity``). Their records are split
into chunks of :data:`CHUNK`, which forked worker processes turn into
encoded artifact lines (plus the representations, or each record's outcome
and raw tag profile); the parent writes the chunks in input order, so the
artifacts are those of a single-CPU run. With one CPU or one chunk no worker
starts. A worker's error is re-raised in the parent, and a worker that dies
ends the command with exit 1. The remote backend overlaps its calls on
``generation.max_inflight`` threads instead.

:func:`run` pauses Python's automatic cyclic garbage collection while the
command runs and restores the caller's setting afterwards. The records,
pages and profiles a command holds form no reference cycles, so the
collector's full passes over that heap free nothing; they cost about a
sixth of a 20k-record mock pipeline. Reference counting frees everything
else as usual, and no stage leaves per-record cyclic garbage behind.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import hashlib
import json
import os
import sys
import threading
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, get_args

from . import assess as assess_mod
from . import procgen, tagnorm, tagparse
from .config import PipelineConfig, load_config, schema, set_key
from .errors import ProcTagError
from .ingest import (Dataset, DocumentPage, InstructionRecord, IoFailure,
                     atomic_write_text, dumps_json, load_dataset, load_pages_dir,
                     record_to_dict)
from .layout import associate, clean_inputs
from .metrics import Prediction, ConfusionMatrix, anls, kappa_report
from .render import (PLAINTEXT, SPATIAL, DocumentRepresentation,
                     render_doclayprompt, render_plaintext, render_spatial)

MANIFEST = "manifest.json"

# items per task of _chunk_map: enough that a task's results cross the
# process boundary as one sizeable pickle, few enough that every worker
# stays busy to the end
CHUNK = 256

# one record's generation outcome as the parent keeps it: whether it was
# discarded, its attempts, and its raw tag profile
Outcome = tuple[bool, int, tagnorm.TagProfile]


# ---------------------------------------------------------------------------
# stage artifact plumbing


def _write_stage(output_dir: Path, stage: str, content: str | Iterable[str],
                 ext: str) -> Path:
    # content may arrive line by line: the largest artifacts are then
    # streamed to disk, never held whole in memory
    output_dir.mkdir(parents=True, exist_ok=True)
    path = atomic_write_text(output_dir / f"{stage}.{ext}", content,
                             name=lambda digest: f"{stage}-{digest[:12]}.{ext}")
    manifest_path = output_dir / MANIFEST
    # the lock is held on the directory itself, so it adds no file to it
    dir_fd = os.open(output_dir, os.O_RDONLY)
    try:
        fcntl.flock(dir_fd, fcntl.LOCK_EX)
        manifest: dict[str, str] = {}
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest[stage] = path.name
        atomic_write_text(manifest_path, dumps_json(manifest) + "\n")
    finally:
        os.close(dir_fd)  # releases the lock
    return path


def _read_stage(output_dir: Path, stage: str) -> Path:
    manifest_path = output_dir / MANIFEST
    if not manifest_path.exists():
        raise IoFailure(f"no manifest in {output_dir}; run earlier stages first")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if stage not in manifest:
        raise IoFailure(f"stage {stage!r} not in {manifest_path}; run it first")
    path = output_dir / manifest[stage]
    if not path.exists():
        raise IoFailure(f"stage artifact {path} is missing")
    return path


def _read_jsonl(path: Path) -> Iterator[dict[str, Any]]:
    # one line at a time, split on "\n" only: str.splitlines() also breaks at
    # U+2028, U+0085 and the like, which canonical JSON leaves unescaped
    # inside strings
    with open(path, encoding="utf-8", newline="\n") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


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

# subcommand -> the config sections it takes flags for, in --help order,
# besides the paths that serve no one section
_SECTIONS = {
    "render": ("render", "layout"),
    "generate": ("generation",),
    "tag": ("tagging",),
    "sample": ("sampling",),
    "assess": (),
    "pipeline": ("render", "layout", "generation", "tagging", "sampling"),
}


def _effective_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    for flag, (section, key) in CONFIG_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            set_key(cfg, section, key, value)
    return cfg


def _load_dataset(cfg: PipelineConfig) -> Dataset:
    return load_dataset(cfg.paths.dataset, cfg.paths.pages)


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
# stages: each takes its inputs as objects, writes its artifact(s), and
# returns its outputs for the next stage


def render_stage(dataset: Dataset, cfg: PipelineConfig,
                 out_dir: Path) -> dict[str, DocumentRepresentation]:
    """Render every page; returns the representations by page id."""

    def render_chunk(pages: list[DocumentPage]) -> tuple[list[DocumentRepresentation], str]:
        reps = [_render_page(page, cfg) for page in pages]
        return reps, "".join(_jsonl(rep.to_dict() for rep in reps))

    reps: dict[str, DocumentRepresentation] = {}

    def lines() -> Iterator[str]:
        for chunk_reps, text in _chunk_map(render_chunk, list(dataset.pages.values())):
            reps.update((rep.page_id, rep) for rep in chunk_reps)
            yield text

    path = _write_stage(out_dir, "render", lines(), "jsonl")
    print(f"rendered {len(reps)} pages -> {path}")
    return reps


def _generate_line(rec: InstructionRecord, rep: DocumentRepresentation,
                   result: procgen.ExecutionProcess | procgen.Discarded) -> dict[str, Any]:
    ann = dict(rec.annotations)
    ann["representation"] = {
        "style": rep.style,
        "digest": hashlib.sha256(rep.text.encode("utf-8")).hexdigest()[:16],
        "token_count": rep.token_count,
    }
    if isinstance(result, procgen.Discarded):
        ann["discarded"] = {"reason": result.reason, "attempts": result.attempts,
                            "last_completion": result.last_completion}
        ann.pop("process", None)
    else:
        ann["process"] = result.to_dict()
        ann.pop("discarded", None)
    obj = record_to_dict(rec)
    obj["annotations"] = ann
    return obj


def _encode_generated(pairs: Iterable[tuple[InstructionRecord,
                                            procgen.ExecutionProcess | procgen.Discarded]],
                      reps: dict[str, DocumentRepresentation]) -> tuple[str, list[Outcome]]:
    """The generate lines of some records and each one's outcome."""
    lines, outcomes = [], []
    for rec, result in pairs:
        lines.append(dumps_json(_generate_line(rec, reps[rec.page_id], result)) + "\n")
        outcomes.append((isinstance(result, procgen.Discarded), result.attempts,
                         _raw_profile(rec.record_id, result)))
    return "".join(lines), outcomes


def generate_stage(records: list[InstructionRecord],
                   reps: dict[str, DocumentRepresentation],
                   backend: procgen.GenerationBackend, cfg: PipelineConfig,
                   out_dir: Path) -> tuple[list[tagnorm.TagProfile], procgen.GenerationLedger]:
    """Generate one execution process per record; returns each record's raw
    tag profile and the ledger."""
    params = procgen.DecodeParams(temperature=cfg.generation.temperature)
    chunks: Iterable[tuple[str, list[Outcome]]]
    if cfg.generation.backend == "remote":
        # only the remote backend waits on the network: its calls overlap on
        # threads, and each record is encoded as it is written
        results = procgen.generate_all(records, reps, backend, procgen.GenerationLedger(),
                                       params=params,
                                       max_inflight=cfg.generation.max_inflight)
        chunks = (_encode_generated([pair], reps) for pair in zip(records, results))
    else:
        # mock and cache replay compute in Python, so they run on every CPU
        def generate_chunk(recs: list[InstructionRecord]) -> tuple[str, list[Outcome]]:
            scratch = procgen.GenerationLedger()  # the parent fills the real one
            return _encode_generated(
                ((rec, procgen.generate_process(rec, reps[rec.page_id], backend,
                                                scratch, params)) for rec in recs), reps)

        chunks = _chunk_map(generate_chunk, records)

    ledger = procgen.GenerationLedger()
    profiles: list[tagnorm.TagProfile] = []

    def lines() -> Iterator[str]:
        for text, outcomes in chunks:
            for discarded, attempts, profile in outcomes:
                record = ledger.record_discard if discarded else ledger.record_success
                record(profile.record_id, attempts)
                profiles.append(profile)
            yield text

    path = _write_stage(out_dir, "generate", lines(), "jsonl")
    _write_stage(out_dir, "ledger", dumps_json(ledger.to_dict()) + "\n", "json")
    rate = procgen.discard_rate(ledger) if ledger.total else 0.0
    print(f"generated {ledger.succeeded}/{ledger.total} processes "
          f"(discard rate {rate:.4f}) -> {path}")
    return profiles, ledger


def _generated(obj: dict[str, Any],
               ) -> tuple[str, procgen.ExecutionProcess | procgen.Discarded | None]:
    """The ``(record_id, process or discard)`` of one generate artifact line."""
    rid, ann = obj["record_id"], obj.get("annotations", {})
    if "process" in ann:
        return rid, procgen.ExecutionProcess.from_dict(ann["process"])
    if "discarded" in ann:
        return rid, procgen.Discarded(record_id=rid, **ann["discarded"])
    return rid, None


def _raw_profile(rid: str, result: procgen.ExecutionProcess | procgen.Discarded | None,
                 ) -> tagnorm.TagProfile:
    """One record's raw tags, from its process or from the last completion
    of a discarded one."""
    steps = result.steps if isinstance(result, procgen.ExecutionProcess) else None
    completion = result.last_completion if isinstance(result, procgen.Discarded) else None
    try:
        seq = tagparse.extract_function_names(rid, steps=steps, completion=completion)
    except tagparse.NoTags:
        return tagnorm.TagProfile(rid, [], source="none")
    return tagnorm.TagProfile(rid, seq.tags, source=seq.source)


def _tags_line(record_id: str, tags: dict[str, Any]) -> dict[str, Any]:
    return {"record_id": record_id, "annotations": {"tags": tags}}


def extract_stage(profiles: list[tagnorm.TagProfile], out_dir: Path) -> None:
    """Write the records' raw tag profiles."""
    path = _write_stage(out_dir, "tags_raw", _jsonl(
        _tags_line(p.record_id, {"raw": p.tags, "source": p.source}) for p in profiles),
        "jsonl")
    print(f"extracted raw tags for {len(profiles)} records -> {path}")


def normalize_stage(profiles: list[tagnorm.TagProfile], embedder: tagnorm.EmbeddingProvider,
                    cfg: PipelineConfig, out_dir: Path,
                    ) -> tuple[list[tagnorm.TagProfile], dict[str, Any]]:
    """Filter, cluster and aggregate the raw profiles, and write every
    stage's tags per record; returns the aggregated profiles and the
    vocabulary report."""
    result = tagnorm.normalize_corpus(
        profiles, embedder,
        min_count=cfg.tagging.min_count,
        dbscan_eps=cfg.tagging.dbscan_eps,
        dbscan_min_pts=cfg.tagging.dbscan_min_pts,
        min_support=cfg.tagging.min_support,
        min_confidence=cfg.tagging.min_confidence)
    tagged = (_tags_line(raw.record_id, {
        "raw": raw.tags, "source": raw.source, "filtered": filtered.tags,
        "clustered": clustered.tags, "aggregated": aggregated.tags,
        "emptied_by_filter": filtered.emptied_by_filter})
        for raw, filtered, clustered, aggregated
        in zip(*(result.stage_profiles[stage] for stage in tagnorm.STAGES)))
    vocab_report = {
        "stages": {stage: dict(sorted(v.entries.items()))
                   for stage, v in result.vocabularies.items()},
        "clusters": {str(cid): {"representative": result.assignment.representatives[cid],
                                "members": members}
                     for cid, members in result.assignment.members().items()},
        "merges": result.merges,
    }
    path = _write_stage(out_dir, "tags", _jsonl(tagged), "jsonl")
    _write_stage(out_dir, "vocab", dumps_json(vocab_report) + "\n", "json")
    print(f"normalized tags for {len(profiles)} records "
          f"({len(vocab_report['merges'])} merges) -> {path}")
    return result.profiles, vocab_report


def profiles_from_tags(records: Iterable[dict[str, Any]],
                       stage: str = "aggregated") -> list[tagnorm.TagProfile]:
    """``stage`` profiles of tagged records (``raw`` from ``tags_raw``,
    any stage from ``tags``), which may arrive one at a time as they are
    read. Each tag is interned: a corpus repeats a few thousand names, and
    decoding makes a new string for every occurrence."""
    profiles = []
    for obj in records:
        tags_ann = obj.get("annotations", {}).get("tags", {})
        profiles.append(tagnorm.TagProfile(
            record_id=obj["record_id"],
            tags=[sys.intern(tag) for tag in tags_ann.get(stage) or ()],
            stage=stage,
            source=tags_ann.get("source", "none"),
            emptied_by_filter=bool(tags_ann.get("emptied_by_filter", False))))
    return profiles


def sample_stage(profiles: list[tagnorm.TagProfile], cfg: PipelineConfig,
                 out_dir: Path) -> None:
    """Select a subset by the configured mode and write the sample report."""
    mode = cfg.sampling.mode
    spec = assess_mod.SampleSpec(mode=mode, budget=cfg.sampling.budget,
                                 ratio=cfg.sampling.ratio,
                                 coverage_target=cfg.sampling.coverage,
                                 seed=cfg.sampling.seed)
    selected = assess_mod.sample(profiles, spec)
    chosen = set(selected)
    subset = [p for p in profiles if p.record_id in chosen]
    report = {
        "mode": mode,
        "selected": selected,
        "count": len(selected),
        "assessment": assess_mod.assess_dataset(subset).to_dict() if subset else None,
        "coverage": (assess_mod.tag_coverage(subset, profiles)
                     if subset and assess_mod.complexity(profiles) else None),
    }
    path = _write_stage(out_dir, "sample", dumps_json(report) + "\n", "json")
    print(f"selected {len(selected)}/{len(profiles)} records -> {path}")


# ---------------------------------------------------------------------------
# subcommands: standalone ones read their inputs through the manifest


def _stage_records(out_dir: Path, stage: str) -> Iterator[dict[str, Any]]:
    return _read_jsonl(_read_stage(out_dir, stage))


def cmd_render(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    if args.in_dir:
        # standalone mode: one representation file per page file
        pages = load_pages_dir(args.in_dir)
        out_dir = Path(args.out if args.out else "reps")
        out_dir.mkdir(parents=True, exist_ok=True)
        for page_id, page in pages.items():
            rep = _render_page(page, cfg)
            atomic_write_text(out_dir / f"{page_id}.json", dumps_json(rep.to_dict()) + "\n")
        print(f"rendered {len(pages)} pages to {out_dir}")
        return 0
    render_stage(_load_dataset(cfg), cfg, Path(cfg.paths.output_dir))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    dataset = _load_dataset(cfg)
    out_dir = Path(cfg.paths.output_dir)
    reps = {obj["page_id"]: DocumentRepresentation.from_dict(obj)
            for obj in _stage_records(out_dir, "render")}
    generate_stage(dataset.records, reps, _make_backend(cfg), cfg, out_dir)
    return 0


def cmd_tag(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    out_dir = Path(cfg.paths.output_dir)
    stage = args.stage
    profiles = None
    if stage in ("extract", "all"):
        profiles = [_raw_profile(*_generated(obj))
                    for obj in _stage_records(out_dir, "generate")]
        extract_stage(profiles, out_dir)
    if stage in ("normalize", "all"):
        if profiles is None:
            profiles = profiles_from_tags(_stage_records(out_dir, "tags_raw"), stage="raw")
        normalize_stage(profiles, _make_embedder(cfg), cfg, out_dir)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    out_dir = Path(cfg.paths.output_dir)
    sample_stage(profiles_from_tags(_stage_records(out_dir, "tags")), cfg, out_dir)
    return 0


def cmd_assess(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    out_dir = Path(cfg.paths.output_dir)
    profiles = profiles_from_tags(_stage_records(out_dir, "tags"))
    report = assess_mod.assess_dataset(profiles).to_dict()
    _write_stage(out_dir, "assess", dumps_json(report) + "\n", "json")
    print(dumps_json(report))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.metric == "anls":
        preds_by_id = {obj["record_id"]: obj["predicted"]
                       for obj in _read_jsonl(Path(args.pred))}
        predictions = []
        for obj in _read_jsonl(Path(args.gold)):
            rid = obj["record_id"]
            if rid not in preds_by_id:
                raise ProcTagError(f"no prediction for record {rid!r}")
            golds = obj.get("answers") or obj.get("golds") or []
            predictions.append(Prediction(record_id=rid, predicted=preds_by_id[rid],
                                          golds=list(golds)))
        score = anls(predictions, tau=args.tau)
        print(dumps_json({"anls": score, "count": len(predictions), "tau": args.tau}))
        return 0
    matrix = json.loads(Path(args.matrix).read_text(encoding="utf-8"))
    report = kappa_report(ConfusionMatrix(counts=matrix))
    print(dumps_json(report))
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    out_dir = Path(cfg.paths.output_dir)
    # a bad backend, embedder or remote URL fails here, before any stage writes
    backend = _make_backend(cfg)
    embedder = _make_embedder(cfg)
    # each stage's input is dropped once the next stage has consumed it
    dataset = _load_dataset(cfg)
    reps = render_stage(dataset, cfg, out_dir)
    profiles, _ledger = generate_stage(dataset.records, reps, backend, cfg, out_dir)
    del dataset, reps
    extract_stage(profiles, out_dir)
    profiles, _vocab = normalize_stage(profiles, embedder, cfg, out_dir)
    sample_stage(profiles, cfg, out_dir)
    return 0


# ---------------------------------------------------------------------------
# parser


def _command(sub: Any, name: str, func: Any, help_text: str) -> argparse.ArgumentParser:
    """Add subcommand ``name`` with one flag per config key of its sections,
    typed and restricted as the config field is."""
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(func=func)
    p.add_argument("--config", help="YAML config file")
    for group in ("paths",) + _SECTIONS[name]:
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

    p = _command(sub, "render", cmd_render, "render page representations")
    p.add_argument("--in", dest="in_dir", help="pages directory (standalone mode)")
    _command(sub, "generate", cmd_generate, "generate execution processes")
    p = _command(sub, "tag", cmd_tag, "extract and normalize process tags")
    p.add_argument("--stage", choices=("extract", "normalize", "all"), default="all")
    _command(sub, "sample", cmd_sample, "select a subset by tag coverage")
    _command(sub, "assess", cmd_assess, "report complexity and diversity")

    p = sub.add_parser("eval", help="score answers or rater agreement")
    ev = p.add_subparsers(dest="metric", required=True)
    pa = ev.add_parser("anls", help="average normalized Levenshtein similarity")
    pa.add_argument("--pred", required=True, help="JSONL of {record_id, predicted}")
    pa.add_argument("--gold", required=True, help="JSONL of {record_id, answers[]}")
    pa.add_argument("--tau", type=float, default=0.5)
    pa.set_defaults(func=cmd_eval)
    pk = ev.add_parser("kappa", help="chance-corrected agreement")
    pk.add_argument("--matrix", required=True, help="JSON file with a square count matrix")
    pk.set_defaults(func=cmd_eval)

    p = _command(sub, "pipeline", cmd_pipeline, "run render -> generate -> tag -> sample")
    p.set_defaults(in_dir=None)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # Automatic cyclic collection is paused while the command runs. The
    # stage data (pages, representations, record dicts, profiles) holds no
    # reference cycles, yet the collector rescans the whole live heap each
    # time it grows by a quarter: on a 20k-record mock pipeline (2-core
    # x86_64 VM, Python 3.11), 9 full collections took 1.4-1.5 s of an
    # 8.1 s run and freed 0 objects.
    # Reference counting still frees everything acyclic; the caller's state
    # is restored afterwards, since tests call run() many times per process.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ProcTagError, ValueError, BrokenExecutor) as exc:
        # BrokenExecutor: a worker process of _chunk_map died
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
