from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import bbox_in_page, mkbox, mkpage, mkreg, mktok, random_box
from proctag.ingest import DocumentPage
from proctag.layout import (CONTAINED, NEAREST, associate, clean_inputs,
                            euclidean_center_distance, nms, reading_order, reading_rows)


class TestDistance:
    def test_identical_boxes(self):
        b = mkbox(3, 4, 9, 10)
        assert euclidean_center_distance(b, b) == 0.0

    def test_three_four_five(self):
        a = mkbox(0, 0, 0, 0)
        b = mkbox(3, 4, 3, 4)
        assert euclidean_center_distance(a, b) == 5.0

    @settings(max_examples=60, deadline=None)
    @given(a=bbox_in_page(), b=bbox_in_page())
    def test_symmetry(self, a, b):
        assert euclidean_center_distance(a, b) == euclidean_center_distance(b, a)


class TestNms:
    def test_duplicate_suppression(self):
        dup = [mkreg("table", 0, 0, 100, 100, score=0.9),
               mkreg("table", 0, 0, 100, 100, score=0.8)]
        survivors = nms(dup, 0.5)
        assert survivors == [dup[0]]

    def test_disjoint_regions_survive(self):
        regions = [mkreg("a", 0, 0, 10, 10), mkreg("b", 20, 20, 30, 30),
                   mkreg("c", 40, 40, 50, 50)]
        assert sorted(r.kind for r in nms(regions, 0.5)) == ["a", "b", "c"]

    def test_matches_bruteforce_on_random_boxes(self, rng):
        for _ in range(30):
            regions = [mkreg("r", *random_box(rng).as_list(),
                             score=round(rng.random(), 3) if rng.random() < 0.7 else None)
                       for _ in range(20)]
            threshold = rng.choice([0.3, 0.5, 0.7])
            assert nms(regions, threshold) == oracles.nms_reference(regions, threshold)

    def test_idempotent(self, rng):
        for _ in range(20):
            regions = [mkreg("r", *random_box(rng).as_list()) for _ in range(15)]
            once = nms(regions, 0.5)
            assert nms(once, 0.5) == once

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            nms([], 0.0)


class TestReadingOrder:
    def test_single_item(self):
        tok = mktok("a", 0, 0, 10, 10)
        assert reading_order([tok]) == [tok]

    def test_vertical_stack(self):
        top = mktok("top", 0, 0, 10, 10)
        bottom = mktok("bottom", 0, 100, 10, 110)
        assert reading_order([bottom, top]) == [top, bottom]

    def test_row_then_column(self):
        a = mktok("a", 0, 0, 10, 10)
        b = mktok("b", 50, 1, 60, 11)   # same row, to the right
        c = mktok("c", 0, 40, 10, 50)
        assert reading_order([c, b, a]) == [a, b, c]

    def test_matches_reference_on_random_boxes(self, rng):
        for _ in range(40):
            items = [mktok(f"t{i}", *random_box(rng, max_side=80).as_list())
                     for i in range(50)]
            shuffled = items[:]
            rng.shuffle(shuffled)
            assert reading_order(shuffled) == oracles.reading_order_reference(shuffled)

    def test_rows_partition_items(self, rng):
        items = [mktok(f"t{i}", *random_box(rng).as_list()) for i in range(30)]
        rows = reading_rows(items)
        flat = [t for row in rows for t in row]
        assert sorted(t.text for t in flat) == sorted(t.text for t in items)


class TestCleanInputs:
    def test_duplicate_table_regions_deduplicated(self):
        page = mkpage(regions=[mkreg("table", 0, 0, 100, 100, score=0.9),
                               mkreg("table", 1, 1, 101, 101, score=0.6)])
        cleaned = clean_inputs(page)
        assert len(cleaned.regions) == 1
        assert cleaned.regions[0].score == 0.9

    def test_clean_page_is_fixpoint(self):
        tokens = [mktok("a", 0, 0, 10, 10), mktok("b", 40, 0, 50, 10)]
        regions = [mkreg("title", 0, 0, 60, 15)]
        page = mkpage(tokens=tokens, regions=regions)
        cleaned = clean_inputs(page)
        assert cleaned.tokens == tokens and cleaned.regions == regions

    def test_returns_a_copy_of_the_page(self):
        tokens = [mktok("b", 40, 0, 50, 10), mktok("a", 0, 0, 10, 10)]
        regions = [mkreg("table", 0, 0, 100, 100, score=0.9),
                   mkreg("table", 1, 1, 101, 101, score=0.6)]
        page = mkpage("p7", tokens=tokens, regions=regions, width=321, height=654)
        cleaned = clean_inputs(page)
        assert type(cleaned) is DocumentPage
        assert (cleaned.page_id, cleaned.width, cleaned.height) == ("p7", 321, 654)
        assert [t.text for t in cleaned.tokens] == ["a", "b"] and len(cleaned.regions) == 1
        # the input page is left as it was
        assert page.tokens == tokens and page.regions == regions

    def test_composes_nms_and_reading_order(self, rng):
        for _ in range(20):
            page = mkpage(
                tokens=[mktok(f"t{i}", *random_box(rng, max_side=60).as_list())
                        for i in range(25)],
                regions=[mkreg("r", *random_box(rng).as_list(), score=round(rng.random(), 2))
                         for _ in range(10)])
            cleaned = clean_inputs(page)
            assert cleaned.tokens == oracles.reading_order_reference(page.tokens)
            assert cleaned.regions == oracles.reading_order_reference(
                oracles.nms_reference(page.regions, 0.5))
            assert len(cleaned.tokens) == len(page.tokens)


class TestAssociate:
    def test_contained_token(self):
        page = mkpage(tokens=[mktok("inside", 10, 10, 30, 20)],
                      regions=[mkreg("table", 0, 0, 100, 100)])
        blocks = associate(clean_inputs(page))
        assert blocks[0].tokens[0].text == "inside"
        assert blocks[0].assignment_kinds == [CONTAINED]

    def test_nearest_region_wins(self):
        # token center (5, 5); region centers at distance 10 and 30
        token = mktok("t", 0, 0, 10, 10)
        near = mkreg("near", 10, 10, 20, 20)      # center (15, 15), d = sqrt(200)
        far = mkreg("far", 30, 30, 40, 40)        # center (35, 35), d = sqrt(1800)
        page = mkpage(tokens=[token], regions=[near, far])
        blocks = associate(clean_inputs(page))
        by_kind = {b.region.kind: b for b in blocks}
        assert by_kind["near"].tokens == [token]
        assert by_kind["near"].assignment_kinds == [NEAREST]
        assert by_kind["far"].tokens == []

    def test_zero_regions_synthesizes_page_block(self):
        page = mkpage(tokens=[mktok("a", 0, 0, 10, 10), mktok("b", 20, 0, 30, 10)])
        blocks = associate(clean_inputs(page))
        assert len(blocks) == 1
        assert blocks[0].region.kind == "page"
        assert blocks[0].region.bbox == mkbox(0, 0, page.width, page.height)
        assert len(blocks[0].tokens) == 2

    def test_matches_exhaustive_scan(self, rng):
        for _ in range(30):
            page = mkpage(
                tokens=[mktok(f"t{i}", *random_box(rng, max_side=40).as_list())
                        for i in range(30)],
                regions=[mkreg(f"r{j}", *random_box(rng).as_list())
                         for j in range(8)])
            cleaned = clean_inputs(page)
            blocks = associate(cleaned)
            expected = oracles.nearest_assignments_reference(cleaned.tokens, cleaned.regions)
            got = {}
            for bi, block in enumerate(blocks):
                for tok, kind in zip(block.tokens, block.assignment_kinds):
                    got[tok.text] = (bi, kind)
            for tok, (ri, kind) in zip(cleaned.tokens, expected):
                assert got[tok.text] == (ri, kind)

    def test_token_conservation_and_nearest_optimality(self, rng):
        for _ in range(20):
            page = mkpage(
                tokens=[mktok(f"t{i}", *random_box(rng, max_side=50).as_list())
                        for i in range(20)],
                regions=[mkreg(f"r{j}", *random_box(rng).as_list()) for j in range(6)])
            cleaned = clean_inputs(page)
            blocks = associate(cleaned)
            texts = sorted(t.text for b in blocks for t in b.tokens)
            assert texts == sorted(t.text for t in page.tokens)
            for block in blocks:
                for tok, kind in zip(block.tokens, block.assignment_kinds):
                    if kind == NEAREST:
                        d = euclidean_center_distance(tok.bbox, block.region.bbox)
                        for other in cleaned.regions:
                            assert euclidean_center_distance(tok.bbox, other.bbox) >= d

    def test_deterministic(self, rng):
        page = mkpage(tokens=[mktok(f"t{i}", *random_box(rng).as_list())
                              for i in range(15)],
                      regions=[mkreg(f"r{j}", *random_box(rng).as_list())
                               for j in range(5)])
        one = associate(clean_inputs(page))
        two = associate(clean_inputs(page))
        assert one == two
