"""Tests for the engine's OS-pipe channel layer."""

import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.channels import (
    Channel,
    ChannelError,
    ChannelReader,
    ChannelWriter,
    EagerPump,
    decode_lines,
    encode_lines,
    iter_decoded_batches,
    iter_encoded_chunks,
)
from repro.engine.workers import InlineSource, ReportSink


def pipe_round_trip(lines, chunk_size=64):
    """Write ``lines`` through a real pipe from a thread, read them back."""
    channel = Channel(chunk_size=chunk_size)
    writer = channel.writer()

    def produce():
        writer.write_lines(lines)
        writer.close()

    producer = threading.Thread(target=produce)
    producer.start()
    received = channel.reader().read_lines()
    producer.join()
    return received, writer


def test_round_trip_small():
    lines = ["alpha", "beta", "gamma"]
    received, _ = pipe_round_trip(lines)
    assert received == lines


def test_round_trip_empty_stream():
    received, writer = pipe_round_trip([])
    assert received == []
    assert writer.bytes_written == 0


def test_round_trip_crosses_chunk_boundaries():
    lines = [f"line-{index:06d}-" + "x" * 37 for index in range(5000)]
    received, writer = pipe_round_trip(lines, chunk_size=256)
    assert received == lines
    assert writer.bytes_written == sum(len(line) + 1 for line in lines)
    assert writer.lines_written == len(lines)


def test_round_trip_preserves_empty_and_unicode_lines():
    lines = ["", "héllo wörld", "", "tab\tseparated", "naïve £5"]
    received, _ = pipe_round_trip(lines)
    assert received == lines


def test_reader_counts_bytes():
    channel = Channel(chunk_size=16)
    writer = channel.writer()
    reader = channel.reader()
    writer.write_lines(["abc", "defg"])
    writer.close()
    assert reader.read_lines() == ["abc", "defg"]
    assert reader.bytes_read == len("abc\ndefg\n")
    assert reader.lines_read == 2


def test_write_after_close_raises():
    channel = Channel()
    writer = channel.writer()
    channel_reader = channel.reader()
    writer.close()
    with pytest.raises(ChannelError):
        writer.write_lines(["late"])
    assert channel_reader.read_lines() == []


def test_encode_decode_inverse():
    lines = ["a", "", "b c", "déjà"]
    assert decode_lines(encode_lines(lines)) == lines
    assert decode_lines(b"") == []
    assert decode_lines(b"no-trailing-newline") == ["no-trailing-newline"]


def test_eager_pump_drains_concurrently():
    """The pump consumes far more than a pipe buffer while we are not reading."""
    lines = ["y" * 200 for _ in range(10_000)]  # ~2 MB >> 64 KB pipe capacity
    channel = Channel()
    pump = EagerPump(channel.reader())
    pump.start()
    writer = channel.writer()
    # Without the pump this write would block forever on the full pipe.
    writer.write_lines(lines)
    writer.close()
    assert pump.result() == lines


def test_channel_close_is_idempotent():
    channel = Channel()
    channel.close()
    channel.close()


def test_broken_pipe_surfaces_to_writer():
    channel = Channel()
    os.close(channel.read_fd)
    writer = channel.writer()
    with pytest.raises(BrokenPipeError):
        writer.write_lines(["x" * (1 << 20)])
        writer.close()
    writer.abandon()


# ---------------------------------------------------------------------------
# Batch framing: properties over random lines and chunk sizes
# ---------------------------------------------------------------------------

#: Lines as the engine sees them: any text without a newline, multi-byte
#: characters and empty lines included (surrogates cannot be encoded).
line_lists = st.lists(
    st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)), max_size=12),
    max_size=40,
)
chunk_sizes = st.integers(min_value=1, max_value=64)


def reference_framing(lines):
    return "".join(line + "\n" for line in lines).encode()


@given(line_lists, chunk_sizes)
def test_encoded_chunks_frame_every_line_and_end_at_the_first_line_end_past_chunk_size(
    lines, chunk_size
):
    chunks = list(iter_encoded_chunks(lines, chunk_size))
    assert b"".join(chunks) == reference_framing(lines)
    assert encode_lines(lines) == reference_framing(lines)
    for chunk in chunks[:-1]:
        # Full chunks reach chunk_size, and their last line is the one that
        # crossed it: without that line the chunk would fall short.
        assert len(chunk) >= chunk_size
        assert chunk.endswith(b"\n")
        assert chunk[:-1].rfind(b"\n") + 1 < chunk_size
    assert all(chunk for chunk in chunks)


@given(line_lists, chunk_sizes, st.lists(st.integers(min_value=0, max_value=600), max_size=8))
def test_decoding_any_chunking_of_the_framed_bytes_returns_the_lines(lines, chunk_size, cuts):
    payload = b"".join(iter_encoded_chunks(lines, chunk_size))
    bounds = sorted({0, len(payload), *(cut for cut in cuts if cut < len(payload))})
    pieces = [payload[start:end] for start, end in zip(bounds, bounds[1:])]
    decoded = [line for batch in iter_decoded_batches(pieces) for line in batch]
    assert decoded == lines
    assert decode_lines(payload) == lines


@settings(deadline=None)
@given(line_lists, chunk_sizes)
def test_line_counters_equal_the_number_of_lines(lines, chunk_size):
    channel = Channel(chunk_size=chunk_size)
    writer = channel.writer()
    half = len(lines) // 2
    writer.write_lines(lines[:half])
    writer.write_lines(lines[half:])
    writer.close()  # the payload is far below a pipe buffer: no reader thread needed
    reader = channel.reader()
    assert reader.read_lines() == lines
    assert writer.lines_written == reader.lines_read == len(lines)
    assert writer.bytes_written == reader.bytes_read == len(reference_framing(lines))

    source = InlineSource(lines, chunk_size)
    assert [line for batch in source.iter_batches() for line in batch] == lines
    assert source.lines_in == len(lines)
    sink = ReportSink(edge_id=0, spill_threshold=1 << 20, directory=None, chunk_size=chunk_size)
    sink.write_lines(lines)
    assert sink.lines_out == len(lines)
    assert sink.entry() == lines
