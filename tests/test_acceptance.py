"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``)."""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import oracles
from conftest import mkpage, mkreg, mktok, random_box
from demo_corpus import make_dataset, random_page, write_dataset
from proctag.assess import Profiles, sample, tag_coverage
from proctag.cli import run
from proctag.config import SamplingConfig
from proctag.layout import associate, clean_inputs, nms, reading_order
from proctag.metrics import Prediction, anls, cohen_kappa
from proctag.procgen import Discarded, GenerationLedger, generate_all
from proctag.render import (render_doclayprompt, render_plaintext,
                            render_spatial)
from proctag.tagnorm import (HashingEmbedder, TagProfile, dbscan,
                             frequency_filter, normalize_corpus,
                             tag_frequencies)
from test_procgen import VALID_COMPLETION, mkrec, mkrep


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {desc}")
        raise
    print(f"\n[PASS] criterion {num}: {desc}")


# ---------------------------------------------------------------------------


def _geometry_page(rng: random.Random, page_id: str):
    """Random page with at most 50 boxes, near-duplicate regions included."""
    tokens = [mktok(f"t{j}", *random_box(rng, max_side=60).as_list())
              for j in range(rng.randint(1, 35))]
    regions = [mkreg(f"r{j}", *random_box(rng).as_list(),
                     score=round(rng.random(), 3) if rng.random() < 0.7 else None)
               for j in range(rng.randint(0, 12))]
    for r in list(regions[:2]):
        if rng.random() < 0.5:
            b = r.bbox
            regions.append(mkreg(r.kind, b.x0 + 1, b.y0 + 1, b.x1 + 1, b.y1 + 1,
                                 score=(r.score or 0.5) * 0.9))
    return mkpage(page_id, tokens, regions)


def test_criterion_1_geometry_oracles():
    with criterion(1, "nms/reading_order/associate match brute force on 1000 pages, <10s"):
        rng = random.Random(1001)
        started = time.monotonic()
        for i in range(1000):
            page = _geometry_page(rng, f"p{i}")
            assert nms(page.regions, 0.5) == oracles.nms_reference(page.regions, 0.5)
            items = page.tokens + page.regions
            assert reading_order(items) == oracles.reading_order_reference(items)
            cleaned = clean_inputs(page)
            blocks = associate(cleaned)
            assigned = {}
            for bi, block in enumerate(blocks):
                for tok, kind in zip(block.tokens, block.assignment_kinds):
                    assigned[id(tok)] = (bi, kind)
            expected = oracles.nearest_assignments_reference(cleaned.tokens,
                                                             cleaned.regions)
            if cleaned.regions:
                for tok, want in zip(cleaned.tokens, expected):
                    assert assigned[id(tok)] == want
            else:
                assert len(blocks) == 1 and len(blocks[0].tokens) == len(page.tokens)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"geometry suite took {elapsed:.1f}s"


def test_criterion_2_token_conservation():
    with criterion(2, "all three renderers preserve the token multiset on 500 pages"):
        rng = random.Random(2002)
        for i in range(500):
            page = random_page(rng, f"p{i}")
            expected = Counter(t.text for t in page.tokens)
            kinds = {r.kind for r in page.regions} | {"page"}
            tag_lines = {f"[{k}]" for k in kinds} | {f"[/{k}]" for k in kinds}
            blocks = associate(clean_inputs(page))
            for rep in (render_plaintext(page), render_spatial(page),
                        render_doclayprompt(blocks, page)):
                words: Counter = Counter()
                for line in rep.text.splitlines():
                    if line in tag_lines:
                        continue
                    words.update(line.split())
                assert words == expected, f"{rep.style} lost tokens on page {i}"
                assert rep.token_count == len(page.tokens)


def _merge_corpus(n_pair: int, adjacent: bool) -> list[TagProfile]:
    profiles = []
    for i in range(n_pair):
        tags = (["extract_list", "find_item"] if adjacent
                else ["extract_list", f"gap{i % 2}", "find_item"])
        profiles.append(TagProfile(f"pair{i:03d}", tags))
    for i in range(30):
        profiles.append(TagProfile(f"fill{i:03d}", [f"noise{i % 3}", "get_value"]))
    return profiles


def test_criterion_3_merge_example():
    with criterion(3, "support-40 confidence-0.99 adjacency merge, boundaries hold"):
        result = normalize_corpus(_merge_corpus(40, adjacent=True), HashingEmbedder())
        vocab = result.vocabularies["aggregated"]
        assert "extract_list_item" in vocab
        assert vocab["extract_list_item"] == 40
        for p in result.profiles:
            assert ("extract_list", "find_item") not in set(zip(p.tags, p.tags[1:]))

        at_39 = normalize_corpus(_merge_corpus(39, adjacent=True), HashingEmbedder())
        assert "extract_list_item" not in at_39.vocabularies["aggregated"]
        assert at_39.merges == []

        non_adjacent = normalize_corpus(_merge_corpus(40, adjacent=False),
                                        HashingEmbedder())
        assert "extract_list_item" not in non_adjacent.vocabularies["aggregated"]
        assert non_adjacent.merges == []


def test_criterion_4_frequency_filter_exactness():
    with criterion(4, "no tag below min_count 4 survives on 100 random corpora"):
        rng = random.Random(4004)
        vocab = [f"t{i}" for i in range(20)]
        for _ in range(100):
            profiles = [TagProfile(f"r{i:03d}",
                                   [rng.choice(vocab)
                                    for _ in range(rng.randint(0, 6))])
                        for i in range(rng.randint(5, 80))]
            filtered, voc = frequency_filter([p.tags for p in profiles], 4)
            recount = tag_frequencies(filtered)
            assert all(c >= 4 for c in recount.values())
            assert recount == {t: c for t, c in
                               oracles.frequencies_reference([p.tags for p in profiles]).items()
                               if c >= 4}
            assert voc == recount


def test_criterion_5_dbscan_equivalence():
    with criterion(5, "dbscan matches brute-force reference over 50 settings"):
        rng = random.Random(5005)
        nprng = np.random.default_rng(5005)
        for setting in range(50):
            n = rng.randint(5, 200)
            dim = rng.choice([4, 8, 16])
            vectors = {}
            if rng.random() < 0.5:
                # blob structure plus stragglers
                centers = [nprng.normal(0, 5, dim) for _ in range(rng.randint(1, 4))]
                for i in range(n):
                    c = centers[i % len(centers)]
                    vectors[f"v{i:03d}"] = c + nprng.normal(0, 0.05, dim)
            else:
                for i in range(n):
                    vectors[f"v{i:03d}"] = nprng.normal(0, 1, dim)
            eps = 10 ** rng.uniform(-3, 0.2)
            min_pts = rng.randint(1, 6)
            freqs = {t: rng.randint(1, 50) for t in vectors}
            got = dbscan(vectors, eps, min_pts, frequencies=freqs)
            ref_labels, ref_reps = oracles.dbscan_reference(vectors, eps, min_pts,
                                                            frequencies=freqs)
            assert got.labels == ref_labels, f"setting {setting}"
            assert got.representatives == ref_reps
        # the documented radius under the offline embedder
        emb = HashingEmbedder()
        tags = [f"{v}_{nn}" for v in ("find", "get", "read")
                for nn in ("table", "tables", "row", "value", "item")]
        vectors = {t: emb.embed(t) for t in tags}
        got = dbscan(vectors, 0.015, 2)
        ref_labels, _ = oracles.dbscan_reference(vectors, 0.015, 2)
        assert got.labels == ref_labels


def test_criterion_6_sampling_optimality():
    with criterion(6, "greedy covers whenever a cover fits the approximation "
                      "budget; coverage monotone on 1000 instances"):
        rng = random.Random(6006)
        checked = 0
        for _ in range(1000):
            n_tags = rng.randint(2, 9)
            universe = [f"t{i}" for i in range(n_tags)]
            n = rng.randint(2, 12)
            profiles = [TagProfile(f"r{i:02d}",
                                   rng.sample(universe,
                                              rng.randint(0, min(4, n_tags))))
                        for i in range(n)]
            tagsets = [set(p.tags) for p in profiles]
            full = Profiles.of(profiles)
            # monotone coverage over every budget, full coverage at the end
            prev = -1.0
            universe_tags = set().union(*tagsets)
            seq = sample(full, SamplingConfig(mode="budget", budget=n))
            for budget in range(n + 1):
                chosen = set(seq[:budget])
                subset = Profiles.of([p for p in profiles if p.record_id in chosen])
                cov = (tag_coverage(subset, full)
                       if subset.ids and universe_tags else 0.0)
                assert cov >= prev
                prev = cov
            if not universe_tags:
                continue
            assert prev == 1.0
            # whenever the exhaustive oracle finds a full cover within the
            # approximation budget ceil(k_opt * H(d)), greedy must reach 1.0
            k_opt, covers = oracles.min_cover_exhaustive(tagsets)
            assert covers, "exhaustive search must find a cover"
            d = max(len(s) for s in tagsets)
            budget = min(n, math.ceil(k_opt * oracles.harmonic(d)))
            chosen = set(sample(full, SamplingConfig(mode="budget", budget=budget)))
            subset = Profiles.of([p for p in profiles if p.record_id in chosen])
            assert tag_coverage(subset, full) == 1.0
            checked += 1
        assert checked > 800  # nearly every instance exercises the cover check


def test_criterion_7_metric_exactness():
    with criterion(7, "frozen metric values exact to 1e-9"):
        got = anls([Prediction("r1", "helo", ["hello"])])
        assert abs(got - 0.8) <= 1e-9
        perfect = anls([Prediction("r1", "a b", ["a b"]),
                        Prediction("r2", "x", ["y", "x"])])
        assert abs(perfect - 1.0) <= 1e-9
        kappa = cohen_kappa([[20, 5], [10, 15]])
        assert abs(kappa - 0.4) <= 1e-9
        diagonal = cohen_kappa([[12, 0, 0], [0, 7, 0], [0, 0, 31]])
        assert abs(diagonal - 1.0) <= 1e-9


def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion(8, "two mock pipeline runs over 200 records are byte-identical, <60s"):
        started = time.monotonic()
        ds = make_dataset(seed=20240601, n_pages=40, records_per_page=5)
        assert len(ds.records) == 200
        write_dataset(ds, tmp_path / "data" / "records.jsonl")
        digests = []
        for run_dir in ("out_a", "out_b"):
            out = tmp_path / run_dir
            code = run(["pipeline", "--backend", "mock", "--embedder", "hashing",
                        "--dataset", str(tmp_path / "data" / "records.jsonl"),
                        "--out", str(out),
                        "--cache-dir", str(tmp_path / run_dir / "_cache"),
                        "--mode", "ratio", "--ratio", "0.3"])
            assert code == 0
            digests.append({str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in sorted(out.rglob("*"))
                            if p.is_file() and "_cache" not in p.parts})
        assert digests[0] == digests[1]
        # the mock corpus is rich enough to drive the association stage
        manifest = json.loads((tmp_path / "out_a" / "manifest.json").read_text())
        vocab = json.loads((tmp_path / "out_a" / manifest["vocab"]).read_text())
        assert any(m["merged"] == "scan_list_entry" for m in vocab["merges"])
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"pipeline determinism check took {elapsed:.1f}s"


class PlannedBackend:
    """Returns junk for the first ``plan[record]`` calls of each prompt."""

    def __init__(self, plan_by_prompt_token: dict[str, int]):
        self.plan = plan_by_prompt_token
        self.calls: Counter = Counter()

    def complete(self, prompt, temperature=0.0, attempt=1):
        token = next(t for t in self.plan if t in prompt)
        self.calls[token] += 1
        if self.calls[token] <= self.plan[token]:
            return "garbled output without a fence"
        return VALID_COMPLETION


def test_criterion_9_retry_discard_contract():
    with criterion(9, "attempts in {1,2,3}; discarded exactly when failures >= 3"):
        failures_plan = {f"record number {i:03d}": i % 5 for i in range(60)}
        backend = PlannedBackend(failures_plan)
        ledger = GenerationLedger()
        outcomes = {}
        for i, (token, n_fail) in enumerate(failures_plan.items()):
            record = mkrec(f"r{i:03d}", question=f"What is {token}?")
            [result] = generate_all([record], {record.page_id: mkrep()}, backend, ledger,
                                    max_inflight=1)
            outcomes[token] = result
            if n_fail >= 3:
                assert isinstance(result, Discarded)
                assert result.attempts == 3
            else:
                assert not isinstance(result, Discarded)
                assert result.attempts == n_fail + 1
                assert result.attempts in (1, 2, 3)
            assert backend.calls[token] <= 3
        expected_discards = sum(1 for n in failures_plan.values() if n >= 3)
        assert ledger.discarded == expected_discards
        assert ledger.total == 60
        assert ledger.succeeded == 60 - expected_discards
