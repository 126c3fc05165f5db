"""Tests for the aggregator library: every aggregator must reproduce the
result of running the original command over the whole input."""

import heapq

import pytest
from hypothesis import assume, given, strategies as st

from repro.commands import misc, sorting, textproc
from repro.runtime.aggregators import AGGREGATORS, AggregatorError, apply_aggregator
from repro.runtime.split import split_stream

lines_strategy = st.lists(st.text(alphabet="abcd ", min_size=0, max_size=6), max_size=40)


def chunked(lines, parts=3):
    return split_stream(lines, parts)


def test_concat():
    assert apply_aggregator("concat", [["a"], ["b", "c"]], []) == ["a", "b", "c"]


def test_merge_sort_equals_global_sort():
    data = ["banana", "apple", "cherry", "apple", "date"]
    chunks = chunked(data)
    partial = [sorting.sort_command([], [chunk]) for chunk in chunks]
    merged = apply_aggregator("merge_sort", partial, [])
    assert merged == sorting.sort_command([], [data])


def test_merge_sort_respects_flags():
    data = ["10", "2", "33", "4", "25", "7"]
    chunks = chunked(data)
    partial = [sorting.sort_command(["-rn"], [chunk]) for chunk in chunks]
    merged = apply_aggregator("merge_sort", partial, ["-rn"])
    assert merged == sorting.sort_command(["-rn"], [data])


def test_merge_uniq_boundary():
    data = ["a", "a", "b", "b", "b", "c"]
    chunks = [["a", "a"], ["a", "b"], ["b", "c"]]  # duplicate across boundary
    whole = sorting.uniq([], [sum(chunks, [])])
    partial = [sorting.uniq([], [chunk]) for chunk in chunks]
    assert apply_aggregator("merge_uniq", partial, []) == whole
    assert data  # silence unused warning


def test_merge_uniq_count_boundary_sums():
    chunks = [["x", "x"], ["x", "y"]]
    whole = sorting.uniq(["-c"], [sum(chunks, [])])
    partial = [sorting.uniq(["-c"], [chunk]) for chunk in chunks]
    assert apply_aggregator("merge_uniq", partial, ["-c"]) == whole


def test_merge_wc_sums_columns():
    chunks = [["a b", "c"], ["d e f"]]
    whole = misc.wc(["-lw"], [sum(chunks, [])])
    partial = [misc.wc(["-lw"], [chunk]) for chunk in chunks]
    assert apply_aggregator("merge_wc", partial, ["-lw"]) == whole


def test_merge_wc_mismatched_columns_raises():
    with pytest.raises(AggregatorError):
        apply_aggregator("merge_wc", [["1 2"], ["3"]], [])


def test_merge_tac_reverses_stream_order():
    chunks = [["a", "b"], ["c", "d"]]
    whole = misc.tac([], [sum(chunks, [])])
    partial = [misc.tac([], [chunk]) for chunk in chunks]
    assert apply_aggregator("merge_tac", partial, []) == whole


def test_merge_head():
    chunks = [["1", "2", "3"], ["4", "5"]]
    whole = misc.head(["-n", "4"], [sum(chunks, [])])
    partial = [misc.head(["-n", "4"], [chunk]) for chunk in chunks]
    assert apply_aggregator("merge_head", partial, ["-n", "4"]) == whole


def test_merge_tail():
    chunks = [["1", "2", "3"], ["4", "5"]]
    whole = misc.tail(["-n", "2"], [sum(chunks, [])])
    partial = [misc.tail(["-n", "2"], [chunk]) for chunk in chunks]
    assert apply_aggregator("merge_tail", partial, ["-n", "2"]) == whole


def test_sum_aggregator():
    assert apply_aggregator("sum", [["3"], ["4"], [""]], []) == ["7"]


def test_unknown_aggregator_raises():
    with pytest.raises(AggregatorError):
        apply_aggregator("merge_magic", [["a"]], [])


def test_all_registered_aggregators_handle_empty_input():
    for name in AGGREGATORS:
        result = apply_aggregator(name, [[], []], [])
        assert isinstance(result, list)


# ---------------------------------------------------------------------------
# Property-based map/aggregate laws (§4.2)
# ---------------------------------------------------------------------------


@given(lines_strategy, st.integers(min_value=2, max_value=5))
def test_sort_map_aggregate_law(lines, parts):
    chunks = split_stream(lines, parts)
    partial = [sorting.sort_command([], [chunk]) for chunk in chunks]
    assert apply_aggregator("merge_sort", partial, []) == sorting.sort_command([], [lines])


@given(lines_strategy, st.integers(min_value=2, max_value=5))
def test_uniq_map_aggregate_law(lines, parts):
    chunks = split_stream(sorted(lines), parts)
    partial = [sorting.uniq([], [chunk]) for chunk in chunks]
    assert apply_aggregator("merge_uniq", partial, []) == sorting.uniq([], [sorted(lines)])


@given(lines_strategy, st.integers(min_value=2, max_value=5))
def test_wc_map_aggregate_law(lines, parts):
    chunks = split_stream(lines, parts)
    partial = [misc.wc(["-lw"], [chunk]) for chunk in chunks]
    assert apply_aggregator("merge_wc", partial, ["-lw"]) == misc.wc(["-lw"], [lines])


@given(lines_strategy, st.integers(min_value=2, max_value=5))
def test_tac_map_aggregate_law(lines, parts):
    chunks = split_stream(lines, parts)
    partial = [misc.tac([], [chunk]) for chunk in chunks]
    assert apply_aggregator("merge_tac", partial, []) == misc.tac([], [lines])


# ---------------------------------------------------------------------------
# Merging over arbitrary split points
# ---------------------------------------------------------------------------

#: Lines whose keys collide under -f, -n and -k2 while the lines differ.
keyed_line = st.builds(
    "{} {}".format,
    st.sampled_from(["a", "A", "b", "B", "10", "9", "-2", "", "1.5"]),
    st.sampled_from(["x", "X", "y", "", "3"]),
)
keyed_lines = st.lists(keyed_line, max_size=30)
split_points = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=4)
SORT_FLAGS = [[], ["-r"], ["-n"], ["-rn"], ["-u"], ["-f"], ["-k2"]]


def split_at(lines, points):
    bounds = [0, *sorted(min(point, len(lines)) for point in points), len(lines)]
    return [lines[start:end] for start, end in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("flags", SORT_FLAGS, ids=lambda flags: " ".join(flags) or "plain")
@given(lines=keyed_lines, points=split_points)
def test_merge_sort_of_sorted_partials_equals_sort_of_the_whole(flags, lines, points):
    partials = [sorting.sort_command(flags, [part]) for part in split_at(lines, points)]
    assert apply_aggregator("merge_sort", partials, flags) == sorting.sort_command(
        flags, [lines]
    )


uniq_lines = st.lists(st.sampled_from(["a", "b", "", "a a"]), max_size=30)


@pytest.mark.parametrize("flags", [[], ["-c"]], ids=["uniq", "uniq -c"])
@given(lines=uniq_lines, points=split_points)
def test_merge_uniq_of_partials_equals_uniq_of_the_whole(flags, lines, points):
    partials = [sorting.uniq(flags, [part]) for part in split_at(lines, points)]
    assert apply_aggregator("merge_uniq", partials, flags) == sorting.uniq(flags, [lines])


def heap_merge_reference(inputs, flags):
    """``sort -m`` as a heap merge of wrapped lines (the earlier implementation)."""
    key = sorting._sort_key_function(flags) or (lambda line: line)
    reverse = sorting.has_flag(flags, "-r")

    class Wrapper:
        def __init__(self, value):
            self.value, self.key = value, key(value)

        def __lt__(self, other):
            return self.key > other.key if reverse else self.key < other.key

    merged = [w.value for w in heapq.merge(*([Wrapper(line) for line in s] for s in inputs))]
    if sorting.has_flag(flags, "-u"):
        return [line for index, line in enumerate(merged)
                if index == 0 or key(line) != key(merged[index - 1])]
    return merged


@pytest.mark.parametrize("flags", SORT_FLAGS, ids=lambda flags: " ".join(flags) or "plain")
@given(lines=st.lists(keyed_line, unique=True, max_size=30), points=split_points)
def test_user_sort_m_on_unsorted_inputs_matches_the_heap_merge(flags, lines, points):
    # The wrapped heap merge broke ties between equal keys in heap order, not
    # input order, and on unsorted inputs the stream it picked changes every
    # later step; compare where its output is defined: no key occurs twice.
    key = sorting._sort_key_function(flags) or (lambda line: line)
    assume(len({key(line) for line in lines}) == len(lines))
    inputs = split_at(lines, points)
    assert sorting.sort_command(["-m", *flags], inputs) == heap_merge_reference(inputs, flags)


def test_merge_sort_keeps_ties_in_stream_order():
    partials = [["ab", "Ab"], ["AB"]]
    assert apply_aggregator("merge_sort", partials, ["-f"]) == ["ab", "Ab", "AB"]
    assert sorting.sort_command(["-m", "-f"], partials) == ["ab", "Ab", "AB"]


TR_SQUEEZES = [
    ["-cs", "A-Za-z", "\\n"],
    ["-s", "\\n"],
    ["-s", " ", "\\n"],
    ["-cs", "a-z", "\\n"],
]
tr_lines = st.lists(st.sampled_from(["", ".x", "a b", "z.", "..", "ab c."]), max_size=20)


@pytest.mark.parametrize("arguments", TR_SQUEEZES, ids=" ".join)
@given(lines=tr_lines, points=split_points)
def test_merge_squeeze_of_tr_partials_equals_tr_of_the_whole(arguments, lines, points):
    partials = [textproc.tr(arguments, [part]) for part in split_at(lines, points)]
    assert apply_aggregator("merge_squeeze", partials, arguments) == textproc.tr(
        arguments, [lines]
    )
