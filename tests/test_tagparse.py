from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from proctag import tagnorm
from proctag.tagparse import (NAME_CACHE_SIZE, GrammarViolation, ProcessStep, TagProfile,
                              collapse_adjacent, extract_function_names, normalize_name,
                              parse_pseudocode, scan_call_sites)


class TestParsePseudocode:
    def test_single_step(self):
        steps = parse_pseudocode("step1: t = find_table(document)")
        assert len(steps) == 1
        assert steps[0].function_name == "find_table"
        assert steps[0].output_var == "t"
        assert steps[0].args == ["document"]

    def test_step_prefix_optional(self):
        steps = parse_pseudocode("t = find_table(document)")
        assert steps[0].function_name == "find_table"

    def test_three_step_chain(self):
        block = "\n".join([
            "step1: t = find_table(document)",
            'step2: r = find_row(t, "Total")',
            "step3: v = get_cell(r, 2)",
        ])
        steps = parse_pseudocode(block)
        assert [s.function_name for s in steps] == ["find_table", "find_row", "get_cell"]
        assert [s.index for s in steps] == [1, 2, 3]
        assert oracles.chain_valid_reference(steps)

    def test_unbalanced_parens(self):
        with pytest.raises(GrammarViolation) as exc:
            parse_pseudocode("t = find_table(document")
        assert exc.value.line_no == 1

    def test_unterminated_quote(self):
        with pytest.raises(GrammarViolation):
            parse_pseudocode('t = find_row(doc, "Total)')

    def test_nested_call_rejected(self):
        with pytest.raises(GrammarViolation):
            parse_pseudocode("t = outer(inner(document))")

    def test_blank_lines_skipped(self):
        steps = parse_pseudocode("\nt = f(document)\n\nu = g(t)\n")
        assert len(steps) == 2

    def test_quoted_literal_args(self):
        steps = parse_pseudocode("v = lookup(document, 'Net Total', 3.5)")
        assert steps[0].args == ["document", "'Net Total'", "3.5"]


# argument-list pieces: quotes, commas, ASCII and unicode whitespace and
# digits, identifier characters, and characters no argument may hold
_ARG_PIECES = ['"', "'", ",", " ", "\t", "\xa0", "\u2028", "\u3000", "\x1c", "\x85", "-", ".",
               "0", "7", "\u0663", "a", "Z", "_", "é", "(", ")", "=", "\U0001f600"]
# well-formed arguments, which the regex splits
_WELL_FORMED = st.sampled_from(["document", "r1", "_x", "a\u0663", "-12", "3.5", "0",
                                '"Total"', "'it, \"q\"'", '"a, b"', '""', "''"])
_SEPARATORS = st.sampled_from([",", ", ", " ,", "\t,\u3000", "\xa0,\xa0"])


@st.composite
def _arg_lists(draw):
    if draw(st.booleans()):
        return draw(st.text(st.sampled_from(_ARG_PIECES), max_size=14))
    args = draw(st.lists(_WELL_FORMED, max_size=5))
    text = draw(st.sampled_from(["", " ", "\u2028"]))
    for i, arg in enumerate(args):
        text += (draw(_SEPARATORS) if i else "") + arg
    return text + draw(st.sampled_from(["", " ", ",", ", x y", '"']))


def _parse_outcome(parse, block):
    try:
        return parse(block)
    except GrammarViolation as exc:
        return str(exc)


@settings(max_examples=1500, deadline=None)
@given(raw=_arg_lists())
@example(raw='"a" "b"')          # one argument to the walker
@example(raw="a, b,")            # an empty trailing argument
@example(raw="a,,b")
@example(raw=" , ")
@example(raw="'unterminated, x")
@example(raw="1.2.3")
@example(raw="\u3000r1\u2028,\xa0'x'\x85")
def test_argument_lists_parse_as_the_character_walker_splits(raw):
    # one step takes the one-scan path where it can; a blank line before it
    # sends the block line by line
    for block in (f"v = f({raw})", f"\nv = f({raw})"):
        assert _parse_outcome(parse_pseudocode, block) == _parse_outcome(
            oracles.parse_pseudocode, block)


class TestNormalizeName:
    def test_camel_case_split(self):
        assert normalize_name("FindTable") == "find_table"

    def test_special_chars_stripped(self):
        assert normalize_name("extract_value!") == "extract_value"

    def test_stepwise_rules(self):
        # camel split (none between digit and upper), lowercase, collapse
        # underscores, strip leading/trailing junk
        assert normalize_name("__Get__2Cells") == "get_2cells"

    def test_leading_digits_stripped(self):
        assert normalize_name("2findTable") == "find_table"

    def test_empty_after_normalization(self):
        assert normalize_name("123!!") == ""
        assert normalize_name("") == ""

    def test_results_cached_including_empty_names(self):
        normalize_name.cache_clear()
        assert normalize_name("FindTable") == normalize_name("FindTable") == "find_table"
        for _ in range(3):
            assert normalize_name("123!!") == ""
        info = normalize_name.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 2, 2)
        assert info.maxsize == NAME_CACHE_SIZE

    @settings(max_examples=150, deadline=None)
    @given(raw=st.text(min_size=1, max_size=24))
    def test_idempotent(self, raw):
        once = normalize_name(raw)
        assert normalize_name(once) == once
        if not once:
            return
        assert once[0].isalpha()
        assert all(c.islower() or c.isdigit() or c == "_" for c in once)


class TestExtractFunctionNames:
    def test_grammar_path(self):
        steps = [ProcessStep(1, "t", "find_table", ["document"]),
                 ProcessStep(2, "v", "extract_value", ["t"])]
        seq = extract_function_names("r1", steps=steps)
        assert seq.tags == ["find_table", "extract_value"]
        assert seq.source == "grammar"

    def test_fallback_from_prose(self):
        seq = extract_function_names(
            "r1", completion="we then call locate_bulleted_list(doc) and read it")
        assert seq.tags == ["locate_bulleted_list"]
        assert seq.source == "fallback"

    def test_returns_a_raw_stage_profile(self):
        steps = [ProcessStep(1, "t", "findTable", ["document"])]
        assert extract_function_names("r1", steps=steps) == TagProfile(
            "r1", ["find_table"], "grammar")
        assert extract_function_names("r2", completion="then sum_col(t)") == TagProfile(
            "r2", ["sum_col"], "fallback")
        assert tagnorm.TagProfile is TagProfile

    def test_adjacent_duplicates_collapse(self):
        steps = [ProcessStep(1, "a", "find_row", ["document"]),
                 ProcessStep(2, "b", "find_row", ["a"]),
                 ProcessStep(3, "c", "get_cell", ["b"])]
        assert extract_function_names("r1", steps=steps).tags == ["find_row", "get_cell"]

    def test_no_tags(self):
        none = TagProfile("r1", [], "none")
        assert extract_function_names("r1", completion="nothing to call here") == none
        assert extract_function_names("r1", completion="") == none
        assert extract_function_names("r1") == none
        # every name normalizes to nothing
        steps = [ProcessStep(1, "t", "_1", ["document"]), ProcessStep(2, "v", "__", ["t"])]
        assert extract_function_names("r1", steps=steps) == none
        assert extract_function_names("r1", completion="_2(x) __(y)") == none

    # hand-labeled fallback mini-corpus: expected calls identified by eye
    @pytest.mark.parametrize("prose,expected", [
        ("we then call locate_bulleted_list(doc) and read it",
         ["locate_bulleted_list"]),
        ("First find_table(document), then extract_cell(t, 2) if needed.",
         ["find_table", "extract_cell"]),
        ("for (i = 0; ...) then GetValue(row)", ["get_value"]),
        ("print(result) comes after compute_total(document)", ["compute_total"]),
        ("CamelCase call LocateHeader(doc) of the page", ["locate_header"]),
        ("no function calls at all, just words", []),
    ])
    def test_fallback_mini_corpus(self, prose, expected):
        profile = extract_function_names("r", completion=prose)
        assert profile.tags == expected
        assert profile.source == ("fallback" if expected else "none")

    def test_fallback_soundness(self):
        texts = [
            "alpha(1) then beta_x(2), maybe if(z) or gamma(3)",
            "stepwise: locate_list(doc); read_items(lst)",
        ]
        for text in texts:
            for name in scan_call_sites(text):
                head = text.index(name) if name in text else -1
                assert head >= 0
                after = text[head + len(name):].lstrip()
                assert after.startswith("(")

    def test_order_equals_step_order(self):
        steps = [ProcessStep(i + 1, f"v{i}", name, [])
                 for i, name in enumerate(["scan_page", "find_list", "pick_item"])]
        assert extract_function_names("r", steps=steps).tags == \
            ["scan_page", "find_list", "pick_item"]


class TestCollapse:
    def test_keeps_non_adjacent_repeats(self):
        assert collapse_adjacent(["a", "b", "a"]) == ["a", "b", "a"]

    def test_collapses_runs(self):
        assert collapse_adjacent(["a", "a", "a", "b", "b"]) == ["a", "b"]

    @given(tags=st.lists(st.sampled_from("abc"), max_size=12))
    def test_no_adjacent_duplicates_after(self, tags):
        out = collapse_adjacent(tags)
        assert all(x != y for x, y in zip(out, out[1:]))
