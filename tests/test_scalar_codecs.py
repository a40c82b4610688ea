import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeclab import (
    SourceVector,
    compress_chain,
    generate_uniform_source,
    make_codec,
)
from codeclab.codecs import (
    CodecError,
    ScalarQuantizerCodec,
    _pack_indices,
    _unpack_indices,
)
from codeclab.ladders import CodebookLadder


@pytest.fixture(scope="module")
def source():
    return generate_uniform_source(1000, 4242)


def test_rate_is_log2_codebook_size(source):
    codec = make_codec("nested-scalar:3")
    sv = SourceVector(source.values[:100])
    assert codec.encode(sv, 3).bits_used == 200.0
    assert codec.encode(sv, 2).bits_used == 100.0
    assert codec.encode(sv, 1).bits_used == 0.0


def test_level1_output_constant(source):
    codec = make_codec("nested-scalar:3")
    recon, _ = codec.reconstruct(source, 1)
    assert np.all(recon.values == recon.values[0])


def test_fixed_quality_idempotent(source):
    for codec in (make_codec("nested-scalar:3"), make_codec("midpoint-scalar:3")):
        for q in (1, 2, 3):
            once, _ = codec.reconstruct(source, q)
            twice, _ = codec.reconstruct(once, q)
            assert np.array_equal(once.values, twice.values)


def test_payload_roundtrip(source):
    codec = make_codec("midpoint-scalar:3")
    for q in (1, 2, 3):
        bs = codec.encode(source, q)
        recon = codec.decode(bs)
        expected, _ = codec.reconstruct(source, q)
        assert np.array_equal(recon.values, expected.values)


def test_reencode_of_chain_final_is_byte_identical(source):
    # nested ladder: re-encoding any mixed-quality chain at its minimum gives
    # the very same payload as encoding the single pass at the minimum
    codec = make_codec("nested-scalar:3")
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        seq = rng.integers(1, 4, size=k).tolist()
        q_min = min(seq)
        y = source
        for q in seq:
            y, _ = codec.reconstruct(y, q)
        single, _ = codec.reconstruct(source, q_min)
        assert codec.encode(y, q_min).payload == codec.encode(single, q_min).payload


LADDERS = [("midpoint", n) for n in range(1, 17)] + [("nested", n) for n in range(1, 9)]


@pytest.fixture(scope="module")
def ladder_codecs():
    return {(kind, n): make_codec(f"{kind}-scalar:{n}") for kind, n in LADDERS}


@pytest.fixture(scope="module")
def nested_codecs(ladder_codecs):
    return {levels: ladder_codecs["nested", levels] for levels in range(1, 9)}


@given(data=st.data(), levels=st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_nested_chain_is_single_pass_at_min(source, nested_codecs, data, levels):
    seq = data.draw(st.lists(st.integers(1, levels), min_size=1, max_size=50))
    codec = nested_codecs[levels]
    chained, _ = compress_chain(source, tuple(seq), codec, rate=False)
    single, _ = codec.stage(source, min(seq))
    assert np.array_equal(chained.values, single.values)


def test_quality_out_of_ladder(source):
    with pytest.raises(CodecError):
        make_codec("nested-scalar:3").encode(source, 4)


def test_corrupt_header_rejected(source):
    codec = make_codec("nested-scalar:3")
    bs = codec.encode(source, 2)
    bs.payload = b"XX" + bs.payload[2:]
    with pytest.raises(CodecError, match="header"):
        codec.decode(bs)


HEADER_SIZE = 7  # "<2sBI": magic, quality, n


@pytest.mark.parametrize("corrupt, error", [
    (lambda body, size: body + b"\x00\x00", "corrupt scalar payload"),
    (lambda body, size: body[:-2], "corrupt scalar payload"),
    (lambda body, size: body[:-1], "corrupt scalar payload"),
    (lambda body, size: size.to_bytes(2, "little") + body[2:], "out of codebook range"),
], ids=["two-trailing-bytes", "one-index-short", "odd-byte-count", "index-is-codebook-size"])
def test_corrupt_body_rejected(source, corrupt, error):
    codec = make_codec("nested-scalar:3")
    bs = codec.encode(source, 3)
    size = len(codec.ladder.level(3))
    bs.payload = bs.payload[:HEADER_SIZE] + corrupt(bs.payload[HEADER_SIZE:], size)
    with pytest.raises(CodecError, match=error):
        codec.decode(bs)


def test_payload_is_header_then_uint16_indices(source):
    codec = make_codec("nested-scalar:3")
    bs = codec.encode(source, 3)
    assert len(bs.payload) == HEADER_SIZE + 2 * len(source)
    assert bs.payload[:HEADER_SIZE] == b"SQ\x03" + len(source).to_bytes(4, "little")
    indices = np.frombuffer(bs.payload[HEADER_SIZE:], "<u2")
    assert np.array_equal(np.asarray(codec.ladder.level(3))[indices], codec.decode(bs).values)


def test_codebook_size_bounded_by_uint16():
    def ladder(size):
        return CodebookLadder(levels=(tuple((2 * i + 1) / (2 * size) for i in range(size)),),
                              kind="midpoint")

    assert ScalarQuantizerCodec(ladder(65_536)).num_levels == 1
    with pytest.raises(ValueError, match="65536 codewords"):
        ScalarQuantizerCodec(ladder(65_537))


def test_index_roundtrip_every_midpoint_level():
    codec = make_codec("midpoint-scalar:16")
    for q in range(1, 17):
        indices = np.arange(len(codec.ladder.level(q)))
        assert np.array_equal(_unpack_indices(_pack_indices(indices), len(indices)), indices)


def test_claims_flag():
    assert make_codec("nested-scalar:3").claims_strong_idempotence
    assert not make_codec("midpoint-scalar:3").claims_strong_idempotence


@pytest.mark.parametrize("name", ["nested-scalar", "midpoint-scalar"],
                         ids=["nested_scalar_codec", "midpoint_scalar_codec"])
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_stage_is_reconstruct_without_payload(monkeypatch, source, name, levels):
    codec = make_codec(f"{name}:{levels}")
    expected = {q: codec.reconstruct(source, q) for q in range(1, levels + 1)}

    def no_payload(*args):
        raise AssertionError("stage built or parsed a payload")

    monkeypatch.setattr(ScalarQuantizerCodec, "encode", no_payload)
    monkeypatch.setattr(ScalarQuantizerCodec, "decode", no_payload)
    for q, (recon, bs) in expected.items():
        staged, bits = codec.stage(source, q)
        assert staged.same_as(recon) and bits is None
        assert codec.stage(recon, q)[0].same_as(recon)
        rated, bits = codec.stage(source, q, rate=True)
        assert rated.same_as(recon)
        assert bits == bs.bits_used
    with pytest.raises(CodecError, match="outside ladder"):
        codec.stage(source, levels + 1)


def _digitize_stage(codec, values, q):
    """The stage that quantised every sample at every level, kept as the
    reference for the factored one: (values, bits)."""
    cw = np.asarray(codec.ladder.level(q), dtype=np.float64)
    return cw[np.digitize(values, (cw[:-1] + cw[1:]) / 2)], len(values) * math.log2(len(cw))


def _edge_inputs(data, codec):
    """0.0, 1.0, every top-level boundary i / 2^(L-1), every top codeword
    and a few drawn values, shuffled."""
    top = np.asarray(codec.ladder.level(codec.num_levels))
    drawn = data.draw(st.lists(st.floats(0.0, 1.0), max_size=16))
    xs = np.concatenate([[0.0, 1.0], np.arange(1, top.size) / top.size, top, drawn])
    return np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(xs)


@given(data=st.data(), ladder=st.sampled_from(LADDERS))
@settings(max_examples=150, deadline=None)
def test_factored_stage_is_per_sample_stage(ladder_codecs, data, ladder):
    codec = ladder_codecs[ladder]
    xs = _edge_inputs(data, codec)
    seq = data.draw(st.lists(st.integers(1, codec.num_levels), min_size=1, max_size=8))
    y, expected = SourceVector(xs), xs
    for q in seq:
        y, bits = codec.stage(y, q, rate=True)
        expected, expected_bits = _digitize_stage(codec, expected, q)
        assert y.cells is not None
        assert np.array_equal(y.values, expected) and bits == expected_bits


@given(data=st.data(), ladder=st.sampled_from(LADDERS))
@settings(max_examples=100, deadline=None)
def test_plain_and_factored_inputs_stage_alike(ladder_codecs, data, ladder):
    codec = ladder_codecs[ladder]
    table = _edge_inputs(data, codec)
    cells = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(
        0, min(table.size, 1 << 16), 3 * table.size).astype(np.uint16)
    factored, plain = SourceVector(cells=cells, table=table), SourceVector(table[cells])
    for q in data.draw(st.lists(st.integers(1, codec.num_levels), min_size=1, max_size=8)):
        (factored, bits_f), (plain, bits_p) = codec.stage(factored, q, True), codec.stage(plain, q, True)
        assert np.array_equal(factored.values, plain.values) and bits_f == bits_p


@pytest.mark.parametrize("name", ["nested-scalar:4", "midpoint-scalar:4"])
def test_staged_source_shares_one_cell_map(source, name):
    """Every stage output of one plain source carries the one top-cell map
    found for it, and the source's values cannot change under that map."""
    codec = make_codec(name)
    outputs = [codec.stage(source, q)[0] for q in range(1, 5)]
    assert all(y.cells is outputs[0].cells for y in outputs)
    assert codec.stage(outputs[0], 3)[0].cells is outputs[0].cells
    with pytest.raises(ValueError, match="read-only"):
        source.values[0] = 0.5
