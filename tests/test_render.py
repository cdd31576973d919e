from __future__ import annotations

from collections import Counter

from conftest import mkpage, mkreg, mktok, random_box
from proctag.layout import associate, clean_inputs
from proctag.render import (FALLBACK_COLUMNS, TRUNCATION_MARKER, estimate_char_cell,
                            render_doclayprompt, render_plaintext,
                            render_spatial)
from proctag.synth import random_page


def _rendered_token_multiset(text: str, kinds=()) -> Counter:
    tag_lines = {f"[{k}]" for k in kinds} | {f"[/{k}]" for k in kinds} | {TRUNCATION_MARKER}
    words: Counter = Counter()
    for line in text.splitlines():
        if line in tag_lines:
            continue
        words.update(line.split())
    return words


class TestEstimateCharCell:
    def test_single_token(self):
        page = mkpage(tokens=[mktok("ab", 0, 0, 20, 10)])
        assert estimate_char_cell(page) == 10.0

    def test_odd_median(self):
        page = mkpage(tokens=[mktok("ab", 0, 0, 16, 10),      # 8 per char
                              mktok("cd", 0, 20, 20, 30),     # 10
                              mktok("ef", 0, 40, 24, 50)])    # 12
        assert estimate_char_cell(page) == 10.0

    def test_empty_page(self):
        # no token to measure: the page's width over FALLBACK_COLUMNS
        assert estimate_char_cell(mkpage()) == mkpage().width / FALLBACK_COLUMNS


class TestPlaintext:
    def test_one_row(self):
        page = mkpage(tokens=[mktok("Total", 0, 0, 50, 12), mktok("Drugs", 80, 0, 130, 12)])
        assert render_plaintext(page).text == "Total Drugs"

    def test_two_rows(self):
        page = mkpage(tokens=[mktok("a", 0, 0, 10, 10), mktok("b", 0, 100, 10, 110)])
        rep = render_plaintext(page)
        assert rep.text == "a\nb"
        assert rep.token_count == 2

    def test_empty_page(self):
        rep = render_plaintext(mkpage())
        assert rep.text == "" and rep.token_count == 0


class TestSpatial:
    def test_no_leading_spaces_at_origin(self):
        page = mkpage(tokens=[mktok("start", 0, 0, 50, 12)])
        assert render_spatial(page).text == "start"

    def test_gap_quantization(self):
        # cell width 10 (both tokens 10 px/char); 50 px gap -> 5 spaces
        page = mkpage(tokens=[mktok("ab", 0, 0, 20, 12), mktok("cd", 70, 0, 90, 12)])
        rep = render_spatial(page)
        assert rep.char_cell_width == 10.0
        assert rep.text == "ab     cd"

    def test_minimum_one_space_between_same_row_tokens(self):
        page = mkpage(tokens=[mktok("ab", 0, 0, 20, 12), mktok("cd", 21, 0, 41, 12)])
        assert render_spatial(page).text == "ab cd"

    def test_order_preserved_in_columns(self, rng):
        for _ in range(20):
            tokens = [mktok(f"w{i}", *random_box(rng, max_side=60).as_list())
                      for i in range(12)]
            text = render_spatial(mkpage(tokens=tokens)).text
            for line in text.splitlines():
                words = line.split()
                starts = [line.index(w) for w in words]
                assert starts == sorted(starts)

    def test_large_vertical_gap_inserts_blank_line(self):
        page = mkpage(tokens=[mktok("a", 0, 0, 10, 12), mktok("b", 0, 200, 10, 212)])
        assert render_spatial(page).text == "a\n\nb"


class TestDoclayprompt:
    def _blocks(self, page):
        return associate(clean_inputs(page))

    def test_single_block_format(self):
        page = mkpage(tokens=[mktok("Report", 10, 10, 70, 25)],
                      regions=[mkreg("title", 0, 0, 100, 40)])
        rep = render_doclayprompt(self._blocks(page), page)
        assert rep.text == "[title]\nReport\n[/title]"
        assert rep.token_count == 1

    def test_reading_order_of_sections(self):
        page = mkpage(
            tokens=[mktok("Head", 10, 10, 50, 22), mktok("cell", 10, 210, 50, 222)],
            regions=[mkreg("table", 0, 200, 300, 400), mkreg("title", 0, 0, 300, 40)])
        text = render_doclayprompt(self._blocks(page), page).text
        assert text.index("[title]") < text.index("[table]")

    def test_empty_blocks_emit_nothing(self):
        page = mkpage(tokens=[mktok("x", 10, 10, 20, 22)],
                      regions=[mkreg("title", 0, 0, 100, 40),
                               mkreg("footer", 0, 1000, 100, 1100)])
        text = render_doclayprompt(self._blocks(page), page).text
        assert "[footer]" not in text

    def test_token_conservation_random_pages(self, rng):
        for i in range(20):
            page = random_page(rng, f"p{i}")
            rep = render_doclayprompt(self._blocks(page), page)
            expected = Counter(t.text for t in page.tokens)
            kinds = {r.kind for r in page.regions} | {"page"}
            assert _rendered_token_multiset(rep.text, kinds) == expected

    def test_opening_tag_once_per_nonempty_block(self, rng):
        for i in range(10):
            page = random_page(rng, f"p{i}")
            blocks = self._blocks(page)
            text = render_doclayprompt(blocks, page).text
            lines = text.splitlines()
            for kind in {b.region.kind for b in blocks}:
                n_nonempty = sum(1 for b in blocks if b.region.kind == kind and b.tokens)
                assert lines.count(f"[{kind}]") == n_nonempty


class TestTruncation:
    def test_doclayprompt_truncates_at_block_boundary(self):
        page = mkpage(tokens=[mktok("alpha", 10, 10, 60, 22),
                              mktok("beta", 10, 210, 50, 222)],
                      regions=[mkreg("title", 0, 0, 300, 40),
                               mkreg("table", 0, 200, 300, 400)])
        blocks = associate(clean_inputs(page))
        full = render_doclayprompt(blocks, page)
        cut = render_doclayprompt(blocks, page, max_chars=len("[title]\nalpha\n[/title]") + 14)
        assert cut.text.startswith("[title]\nalpha\n[/title]")
        assert cut.text.endswith(TRUNCATION_MARKER)
        assert cut.token_count == 1
        assert full.token_count == 2

    def test_no_marker_when_it_fits(self):
        page = mkpage(tokens=[mktok("abc", 0, 0, 30, 12)])
        rep = render_plaintext(page, max_chars=100)
        assert TRUNCATION_MARKER not in rep.text

    def test_exact_fit_is_not_truncated(self):
        page = mkpage(tokens=[mktok("abcdef", 0, 0, 60, 12)])
        rep = render_plaintext(page, max_chars=6)
        assert rep.text == "abcdef" and rep.token_count == 1

    def test_nothing_fits_leaves_only_marker(self):
        page = mkpage(tokens=[mktok("abcdef", 0, 0, 60, 12)])
        rep = render_plaintext(page, max_chars=5)
        assert rep.text == TRUNCATION_MARKER and rep.token_count == 0


class TestDeterminism:
    def test_byte_identical_output(self, rng):
        page = random_page(rng, "p0")
        blocks = associate(clean_inputs(page))
        for render in (render_plaintext, render_spatial):
            assert render(page).text == render(page).text
        assert (render_doclayprompt(blocks, page).text
                == render_doclayprompt(blocks, page).text)
