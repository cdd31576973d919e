from __future__ import annotations

import dataclasses
import random
import sys
import threading

import pytest
import yaml
from hypothesis import strategies as st

from proctag import cli
from proctag.ingest import (BoundingBox, Dataset, DocumentPage,
                            InstructionRecord, LayoutRegion, OcrToken)

PAGE_W = 1000.0
PAGE_H = 1400.0


def mkbox(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def mktok(text, x0, y0, x1, y1, confidence=None):
    return OcrToken(text=text, bbox=mkbox(x0, y0, x1, y1), confidence=confidence)


def mkreg(kind, x0, y0, x1, y1, score=None):
    return LayoutRegion(kind=kind, bbox=mkbox(x0, y0, x1, y1), score=score)


def mkpage(page_id="p0", tokens=(), regions=(), width=PAGE_W, height=PAGE_H):
    return DocumentPage(page_id=page_id, width=width, height=height,
                        tokens=list(tokens), regions=list(regions))


def nested_annotations(levels, *, mixed=False):
    """Annotations in which lists (and, ``mixed``, objects in turn) nest
    ``levels`` deep, the annotations object the first (``levels`` >= 2),
    beside a flat value."""
    value = []
    for k in range(levels - 2):
        value = {"k": value} if mixed and k % 2 else [value]
    return {"x": value, "flat": "y"}


def write_config(cfg, path):
    """Write a config as the YAML file ``--config`` reads."""
    path.write_text(yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=True), encoding="utf-8")


def write_stage(out_dir, stage, content, ext):
    """Write one stage artifact into ``out_dir`` and name it in the manifest,
    as a row of the pipeline commits it; returns its path."""
    with cli._row_writer(out_dir) as write:
        return write(stage, content, ext)


def random_box(rng: random.Random, width=PAGE_W, height=PAGE_H, max_side=300.0):
    x0 = rng.uniform(0, width - 1)
    y0 = rng.uniform(0, height - 1)
    return mkbox(round(x0, 2), round(y0, 2),
                 round(min(width, x0 + rng.uniform(1, max_side)), 2),
                 round(min(height, y0 + rng.uniform(1, max_side)), 2))


@pytest.fixture
def rng():
    return random.Random(20240)


def run_together(fn, n_threads=4, timeout=10.0):
    """Call ``fn()`` on ``n_threads`` threads released by one barrier, with a
    short switch interval; return the exceptions they raised."""
    barrier = threading.Barrier(n_threads, timeout=timeout)
    errors: list[Exception] = []

    def worker():
        try:
            barrier.wait()
            fn()
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a filler thread hung"
    return errors


# ---------------------------------------------------------------------------
# hypothesis strategies

_word = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10)


@st.composite
def bbox_in_page(draw, width=PAGE_W, height=PAGE_H):
    x0 = draw(st.floats(0, width - 1, allow_nan=False, width=32))
    y0 = draw(st.floats(0, height - 1, allow_nan=False, width=32))
    x1 = draw(st.floats(x0, width, allow_nan=False, width=32))
    y1 = draw(st.floats(y0, height, allow_nan=False, width=32))
    return BoundingBox(float(x0), float(y0), float(x1), float(y1))


@st.composite
def page_st(draw, max_tokens=6, max_regions=4):
    tokens = [OcrToken(text=draw(_word), bbox=draw(bbox_in_page()),
                       confidence=draw(st.none() | st.floats(0, 1, width=32)))
              for _ in range(draw(st.integers(0, max_tokens)))]
    regions = [LayoutRegion(kind=draw(st.sampled_from(("title", "table", "list", "figure"))),
                            bbox=draw(bbox_in_page()),
                            score=draw(st.none() | st.floats(0, 1, width=32)))
               for _ in range(draw(st.integers(0, max_regions)))]
    page_id = draw(st.uuids().map(lambda u: f"p{u.hex[:8]}"))
    return DocumentPage(page_id=page_id, width=PAGE_W, height=PAGE_H,
                        tokens=tokens, regions=regions)


_json_scalar = st.none() | st.booleans() | st.integers(-1000, 1000) | _word


@st.composite
def dataset_st(draw):
    pages = draw(st.lists(page_st(), min_size=1, max_size=3,
                          unique_by=lambda p: p.page_id))
    page_map = {p.page_id: p for p in pages}
    n_records = draw(st.integers(0, 4))
    records = []
    for i in range(n_records):
        annotations = draw(st.dictionaries(
            st.sampled_from(("representation", "process", "tags", "note")),
            st.dictionaries(_word, _json_scalar, max_size=3), max_size=2))
        records.append(InstructionRecord(
            record_id=f"r{i:03d}",
            page_id=draw(st.sampled_from(sorted(page_map))),
            question=draw(_word),
            answers=draw(st.lists(_word, max_size=3)),
            annotations=annotations))
    referenced = {r.page_id for r in records}
    return Dataset(records=records,
                   pages={pid: page_map[pid] for pid in page_map if pid in referenced})
