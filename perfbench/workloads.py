"""Seeded input generators and the set-up step of each workload.

The generators live here rather than in ``proctag.synth`` so that a change to
the program can never change the benchmark's inputs: the program only ever
sees the files written below. Every generator is a pure function of its seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

# -- document corpus (pipeline workloads) -----------------------------------

REGION_KINDS = ("title", "paragraph", "table", "list", "header", "footer", "figure")
WORDS = (
    "total", "invoice", "amount", "date", "name", "address", "summary", "report",
    "item", "quantity", "price", "tax", "balance", "due", "account", "number",
    "city", "phone", "order", "status", "code", "unit", "net", "gross",
)
QUESTIONS = (
    "What is the {word} shown in the {kind}?",
    "Which {word} appears first on the page?",
    "How many {word} entries does the {kind} contain?",
    "What value is listed next to {word}?",
)
PAGE_W, PAGE_H = 1000.0, 1400.0


def _box(x0: float, y0: float, x1: float, y1: float) -> list[float]:
    return [round(x0, 2), round(y0, 2), round(x1, 2), round(y1, 2)]


def _page(rng: random.Random, page_id: str) -> dict:
    """Row-structured OCR tokens plus possibly overlapping layout regions,
    a fifth of them near-duplicates so that suppression has work to do."""
    tokens = []
    y, row_h, x = rng.uniform(10, 60), rng.uniform(14, 30), rng.uniform(0, 100)
    for _ in range(rng.randint(1, 30)):
        text = rng.choice(WORDS) + (str(rng.randint(0, 99)) if rng.random() < 0.3 else "")
        w = len(text) * rng.uniform(6, 12)
        if x + w > PAGE_W - 10 or rng.random() < 0.2:
            y += row_h * rng.uniform(1.0, 2.5)
            x = rng.uniform(0, 100)
        if y + row_h > PAGE_H - 10:
            y = rng.uniform(10, 60)
        jitter = rng.uniform(-0.2, 0.2) * row_h
        tokens.append({"text": text,
                       "bbox": _box(x, max(0.0, y + jitter), min(PAGE_W, x + w),
                                    min(PAGE_H, y + jitter + row_h)),
                       "confidence": round(rng.uniform(0.5, 1.0), 3)})
        x += w + rng.uniform(8, 60)
    regions = []
    for _ in range(rng.randint(0, 6)):
        x0, y0 = rng.uniform(0, PAGE_W * 0.6), rng.uniform(0, PAGE_H * 0.7)
        box = _box(x0, y0, x0 + rng.uniform(80, PAGE_W - x0), y0 + rng.uniform(40, PAGE_H - y0))
        region = {"kind": rng.choice(REGION_KINDS), "bbox": box,
                  "score": round(rng.uniform(0.3, 1.0), 3)}
        regions.append(region)
        if rng.random() < 0.2:
            regions.append({"kind": region["kind"],
                            "bbox": _box(box[0] + rng.uniform(0, 4), box[1] + rng.uniform(0, 4),
                                         min(PAGE_W, box[2] + rng.uniform(0, 4)),
                                         min(PAGE_H, box[3] + rng.uniform(0, 4))),
                            "score": round(max(0.0, region["score"] - rng.uniform(0.05, 0.2)), 3)})
    return {"page_id": page_id, "width": PAGE_W, "height": PAGE_H, "tokens": tokens,
            "regions": regions, "meta": {"token_granularity": "word"}}


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def write_documents(root: Path, seed: int, n_pages: int, records_per_page: int,
                    ) -> tuple[Path, list[str]]:
    """Write ``records.jsonl`` and ``pages/<page_id>.json``; return the
    record file and the record ids in file order."""
    rng = random.Random(seed)
    pages_dir = root / "pages"
    pages_dir.mkdir(parents=True)
    lines, ids = [], []
    for p in range(n_pages):
        page_id = f"p{p:05d}"
        (pages_dir / f"{page_id}.json").write_text(_dump(_page(rng, page_id)) + "\n",
                                                   encoding="utf-8")
        for _ in range(records_per_page):
            question = rng.choice(QUESTIONS).format(word=rng.choice(WORDS),
                                                    kind=rng.choice(REGION_KINDS))
            ids.append(f"r{len(ids):06d}")
            lines.append(_dump({"record_id": ids[-1], "page_id": page_id,
                                "question": question, "answers": [rng.choice(WORDS)]}))
    records = root / "records.jsonl"
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return records, ids


# -- Zipf tag corpus (curation workload) ------------------------------------

_VERBS = ("find", "extract", "locate", "get", "read", "compare", "count", "sum",
          "filter", "sort", "match", "parse", "lookup", "select", "split", "join",
          "check", "convert", "group", "rank")
_NOUNS = ("table", "row", "column", "value", "title", "item", "total", "header",
          "date", "cell", "field", "label", "amount", "name", "list", "section",
          "footer", "figure", "line", "key", "entry", "unit", "price", "code", "page")
_QUALIFIERS = ("", "_first", "_last", "_max", "_min")
# Outside the generated vocabulary, and always adjacent, so the pair's
# confidence is 1.0 and the association stage must merge it.
PLANTED_PAIR = ("scan_ledger", "pick_record")
PLANTED_RATE = 0.3
ZIPF_EXPONENT = 0.9


def tag_vocabulary(size: int) -> list[str]:
    names = [f"{v}_{n}{q}" for q in _QUALIFIERS for v in _VERBS for n in _NOUNS]
    if size > len(names):
        raise ValueError(f"vocabulary size {size} exceeds {len(names)} names")
    return names[:size]


def tag_profiles(seed: int, n_records: int, vocab_size: int) -> list[list[str]]:
    """Ordered raw tag lists of 2-8 tags drawn Zipf-distributed over a
    seed-shuffled vocabulary, with no adjacent repeats (as the extractor
    guarantees); a fixed share opens with the planted pair."""
    rng = random.Random(seed)
    vocab = tag_vocabulary(vocab_size)
    rng.shuffle(vocab)
    cum, total = [], 0.0
    for rank in range(1, len(vocab) + 1):
        total += rank ** -ZIPF_EXPONENT
        cum.append(total)
    profiles = []
    for _ in range(n_records):
        length = rng.randint(2, 8)
        tags = list(PLANTED_PAIR) if rng.random() < PLANTED_RATE else []
        while len(tags) < length:
            tag = rng.choices(vocab, cum_weights=cum)[0]
            if not tags or tags[-1] != tag:
                tags.append(tag)
        profiles.append(tags)
    return profiles


def write_tags_raw(out_dir: Path, seed: int, n_records: int, vocab_size: int) -> list[str]:
    """Write the profiles as the ``tags_raw`` stage artifact plus manifest,
    the state ``proctag tag --stage extract`` leaves behind; return the
    record ids in file order."""
    rng = random.Random(seed + 1)
    lines, ids = [], []
    for i, tags in enumerate(tag_profiles(seed, n_records, vocab_size)):
        ids.append(f"z{i:06d}")
        question = rng.choice(QUESTIONS).format(word=rng.choice(WORDS),
                                                kind=rng.choice(REGION_KINDS))
        lines.append(_dump({"record_id": ids[-1], "page_id": f"zp{i // 10:05d}",
                            "question": question, "answers": [rng.choice(WORDS)],
                            "annotations": {"tags": {"raw": tags, "source": "grammar"}}}))
    content = "".join(line + "\n" for line in lines)
    name = f"tags_raw-{hashlib.sha256(content.encode('utf-8')).hexdigest()[:12]}.jsonl"
    out_dir.mkdir(parents=True)
    (out_dir / name).write_text(content, encoding="utf-8")
    (out_dir / "manifest.json").write_text(_dump({"tags_raw": name}) + "\n", encoding="utf-8")
    return ids


# -- set-up ----------------------------------------------------------------


@dataclass(frozen=True)
class Scale:
    pages: int
    records_per_page: int
    zipf_records: int
    zipf_vocab: int


FULL = Scale(pages=2000, records_per_page=10, zipf_records=20_000, zipf_vocab=2000)
SMOKE = Scale(pages=20, records_per_page=5, zipf_records=300, zipf_vocab=100)


@dataclass
class Inputs:
    """What set-up left in a workload directory."""

    ids: list[str]                 # input record ids, in order
    dataset: Path | None = None    # record file; pages/ sits next to it
    render_out: Path | None = None  # output dir holding the plaintext render stage
    cache_dir: Path | None = None  # filled completion cache
    seed_out: Path | None = None   # artifacts every timed run starts from


def setup_documents(root: Path, seed: int, scale: Scale) -> Inputs:
    dataset, ids = write_documents(root / "data", seed, scale.pages, scale.records_per_page)
    return Inputs(ids=ids, dataset=dataset)


def setup_replay(root: Path, seed: int, scale: Scale) -> Inputs:
    """Documents plus a completion cache filled through
    ``CachingBackend(inner=MockBackend())`` over their plaintext renderings."""
    from proctag import cli, procgen
    from proctag.ingest import load_dataset
    from proctag.render import DocumentRepresentation

    inputs = setup_documents(root, seed, scale)
    inputs.render_out = root / "render"
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.run(["render", "--style", "plaintext", "--dataset", str(inputs.dataset),
                        "--out", str(inputs.render_out)])
    if code != 0:
        raise RuntimeError(f"render for the cache fill exited {code}")
    manifest = json.loads((inputs.render_out / "manifest.json").read_text(encoding="utf-8"))
    with open(inputs.render_out / manifest["render"], encoding="utf-8") as fh:
        reps = {obj["page_id"]: DocumentRepresentation.from_dict(obj)
                for obj in map(json.loads, fh)}
    inputs.cache_dir = root / "cache"
    backend = procgen.CachingBackend(inputs.cache_dir, inner=procgen.MockBackend())
    # one writer: records that share a prompt share the cache's temp-file
    # name, so concurrent fills of one key race on the rename
    procgen.generate_all(load_dataset(inputs.dataset).records, reps, backend,
                         procgen.GenerationLedger(), max_inflight=1)
    return inputs


def setup_tags(root: Path, seed: int, scale: Scale) -> Inputs:
    ids = write_tags_raw(root / "out", seed, scale.zipf_records, scale.zipf_vocab)
    return Inputs(ids=ids, seed_out=root / "out")
