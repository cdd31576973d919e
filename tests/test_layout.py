from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import mkbox, mkpage, mkreg, mktok, random_box
from proctag.ingest import BoundingBox, DocumentPage, LayoutRegion, OcrToken
from proctag.layout import (CONTAINED, NEAREST, associate, clean_inputs, nms, reading_order,
                            reading_rows)

# Coordinates that make boxes tie, touch, collapse, invert or break: a small
# pool of exact values (ints among them), NaN and the infinities, and any
# float at all.
_COORD = (st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 10.0]) | st.integers(0, 4)
          | st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats())
_SIDE = st.sampled_from([0, 1, 2, 5]) | st.floats(0, 10)


@st.composite
def adversarial_boxes(draw, max_size=10):
    """Boxes of any four coordinates, or of a small size, or that repeat an
    earlier box, touch its right or bottom edge, or have no height or width
    where it starts."""
    boxes: list[BoundingBox] = []
    for _ in range(draw(st.integers(0, max_size))):
        shapes = ("fresh", "sized") + (("same", "right", "below", "flat", "thin") if boxes else ())
        shape = draw(st.sampled_from(shapes))
        if shape == "fresh":
            boxes.append(BoundingBox(*draw(st.tuples(_COORD, _COORD, _COORD, _COORD))))
            continue
        if shape == "sized":
            x0, y0, w, h = draw(st.tuples(_COORD, _COORD, _SIDE, _SIDE))
            boxes.append(BoundingBox(x0, y0, x0 + w, y0 + h))
            continue
        b = draw(st.sampled_from(boxes))
        if shape == "right":
            b = BoundingBox(b.x1, b.y0, draw(_COORD), b.y1)
        elif shape == "below":
            b = BoundingBox(b.x0, b.y1, b.x1, draw(_COORD))
        elif shape == "flat":
            b = BoundingBox(b.x0, b.y0, b.x1, b.y0)
        elif shape == "thin":
            b = BoundingBox(b.x0, b.y0, b.x0, b.y1)
        boxes.append(b)
    return boxes


_SCORE = st.none() | st.sampled_from([0.0, 0.5, 1.0, math.nan]) | st.floats(0, 1)


@st.composite
def adversarial_regions(draw, max_size=10):
    return [LayoutRegion(kind=f"r{i}", bbox=b, score=draw(_SCORE))
            for i, b in enumerate(draw(adversarial_boxes(max_size)))]


@st.composite
def adversarial_tokens(draw, max_size=12):
    return [OcrToken(text=f"t{i}", bbox=b)
            for i, b in enumerate(draw(adversarial_boxes(max_size)))]


def _outcome(fn, *args, **kwargs):
    """The ids of what ``fn`` returns (nested lists kept), or the type of
    what it raises."""
    def ids(value):
        return [ids(v) for v in value] if isinstance(value, list) else id(value)
    try:
        return ids(fn(*args, **kwargs))
    except Exception as exc:  # the old and new paths must fail alike
        return type(exc)


_TOLERANCE = st.sampled_from([0.0, 0.5, 1.0])
_THRESHOLD = st.sampled_from([0.3, 0.5, 1.0]) | st.floats(0, 1, exclude_min=True)


class TestAgainstPreviousKernels:
    """The plain-tuple kernels return the very objects, in the very order,
    that the numpy and closure-based versions in ``oracles`` return."""

    @settings(max_examples=400, deadline=None)
    @given(regions=adversarial_regions(), threshold=_THRESHOLD)
    def test_nms(self, regions, threshold):
        assert _outcome(nms, regions, threshold) == _outcome(oracles.nms_numpy, regions, threshold)

    @settings(max_examples=400, deadline=None)
    @given(tokens=adversarial_tokens(), tolerance=_TOLERANCE)
    def test_reading_rows(self, tokens, tolerance):
        assert (_outcome(reading_rows, tokens, tolerance_factor=tolerance)
                == _outcome(oracles.reading_rows_closures, tokens, tolerance))

    @settings(max_examples=400, deadline=None)
    @given(tokens=adversarial_tokens(), regions=adversarial_regions(max_size=5),
           width=_COORD, height=_COORD)
    def test_associate(self, tokens, regions, width, height):
        page = DocumentPage(page_id="p", width=width, height=height,
                            tokens=tokens, regions=regions)
        got = associate(page)
        want = oracles.associate_scan(page)
        assert len(got) == len(want)
        for block, (region, toks, kinds) in zip(got, want):
            # a page without regions gets a synthetic one on either path
            assert block.region is region or not regions and block.region == region
            assert [id(t) for t in block.tokens] == [id(t) for t in toks]
            assert block.assignment_kinds == kinds


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

    def test_center_distance_decides(self):
        # token center (0, 0): 5 from (3, 4), 6 from (6, 0); a token whose box
        # is a region's own is at distance 0 from it and contained
        token = mktok("t", 0, 0, 0, 0)
        far, near = mkreg("far", 6, 0, 6, 0), mkreg("near", 3, 4, 3, 4)
        assert oracles.center_distance(token.bbox, near.bbox) == 5.0
        blocks = associate(mkpage(tokens=[token], regions=[far, near]))
        assert [(b.tokens, b.assignment_kinds) for b in blocks] == [([], []),
                                                                    ([token], [NEAREST])]
        same = mktok("s", 3, 4, 9, 10)
        outer, own = mkreg("outer", 0, 0, 20, 20), mkreg("own", 3, 4, 9, 10)
        assert oracles.center_distance(same.bbox, own.bbox) == 0.0
        blocks = associate(mkpage(tokens=[same], regions=[outer, own]))
        assert [(b.tokens, b.assignment_kinds) for b in blocks] == [([], []),
                                                                    ([same], [CONTAINED])]

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
                        d = oracles.center_distance(tok.bbox, block.region.bbox)
                        assert d == oracles.center_distance(block.region.bbox, tok.bbox)
                        for other in cleaned.regions:
                            assert oracles.center_distance(tok.bbox, other.bbox) >= d

    def test_deterministic(self, rng):
        page = mkpage(tokens=[mktok(f"t{i}", *random_box(rng).as_list())
                              for i in range(15)],
                      regions=[mkreg(f"r{j}", *random_box(rng).as_list())
                               for j in range(5)])
        one = associate(clean_inputs(page))
        two = associate(clean_inputs(page))
        assert one == two
