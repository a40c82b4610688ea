import json
import math
import shutil
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeclab import (
    ExternalCodec,
    ExternalCodecError,
    ExternalCodecSpec,
    ImageBuffer,
    serialize_pnm,
)
from codeclab.protocol import EvalConfig, run_protocol


@pytest.fixture()
def copy_spec():
    cp = shutil.which("cp")
    return ExternalCodecSpec(
        encode_cmd=f"{cp} {{input}} {{output}}",
        decode_cmd=f"{cp} {{input}} {{output}}",
        quality_map=["1", "2", "3"],
    )


def _reconstruct_bpp(img, q, spec):
    out, bs = ExternalCodec(spec).reconstruct(img, q)
    return out, bs.bits_used / img.pixel_count


def _random_image(seed=0, w=24, h=16):
    rng = np.random.default_rng(seed)
    return ImageBuffer(w, h, 1, rng.integers(0, 256, w * h, dtype=np.uint8))


def test_identity_pipeline(copy_spec):
    img = _random_image()
    out, bpp = _reconstruct_bpp(img, 2, copy_spec)
    assert out.same_as(img)
    # encoded file is the PNM itself
    assert bpp == 8.0 * len(serialize_pnm(img)) / (img.width * img.height)
    # the base class's stage counts the same file bytes, and only on request
    staged, bits = ExternalCodec(copy_spec).stage(img, 2, True)
    assert staged.same_as(img) and bits == 8.0 * len(serialize_pnm(img))
    staged, bits = ExternalCodec(copy_spec).stage(img, 2)
    assert staged.same_as(img) and bits is None


def test_report_runs_one_stage_per_item_and_level(tmp_path, monkeypatch):
    """With cp as the coder every stage returns its input's samples, so each
    chain stage is a single pass of its item: a report runs items x levels
    stages, each item's passes once."""
    items = [_random_image(seed) for seed in (1, 2)]
    for i, img in enumerate(items):
        (tmp_path / f"img{i}.pgm").write_bytes(serialize_pnm(img))
    stage, calls = ExternalCodec.stage, []

    def counting(self, x, q, rate=False):
        calls.append((x.samples.tobytes(), q))
        return stage(self, x, q, rate)

    monkeypatch.setattr(ExternalCodec, "stage", counting)
    cp = shutil.which("cp")
    spec = {"encode_cmd": f"{cp} {{input}} {{output}}", "decode_cmd": f"{cp} {{input}} {{output}}",
            "quality_map": ["1", "2", "3"]}
    run_protocol(EvalConfig(codec="external", codec_options={"spec": spec},
                            dataset=str(tmp_path), k_list=[1, 4], b=2, mode="literal"))
    assert calls == [(img.samples.tobytes(), q) for img in items for q in (1, 2, 3)]


def test_bpp_arithmetic(tmp_path):
    # encoder writes a fixed-size 9600-byte file; decoder emits a 256x100 PGM
    enc = tmp_path / "enc.py"
    enc.write_text(
        "import sys\nopen(sys.argv[2], 'wb').write(b'\\x00' * 9600)\n"
    )
    dec = tmp_path / "dec.py"
    dec.write_text(
        "import sys\n"
        "open(sys.argv[2], 'wb').write(b'P5\\n256 100\\n255\\n' + b'\\x00' * 25600)\n"
    )
    spec = ExternalCodecSpec(
        encode_cmd=f"{sys.executable} {enc} {{input}} {{output}}",
        decode_cmd=f"{sys.executable} {dec} {{input}} {{output}}",
        quality_map=["q"],
    )
    img = ImageBuffer(256, 100, 1, np.zeros(25600, np.uint8))
    _, bpp = _reconstruct_bpp(img, 1, spec)
    assert bpp == 3.0


def test_quality_placeholder_substitution(tmp_path):
    enc = tmp_path / "enc.py"
    enc.write_text(
        "import sys\nopen(sys.argv[3], 'w').write(sys.argv[1])\n"
    )
    dec = tmp_path / "dec.py"
    dec.write_text(
        "import sys, shutil\n"
        "open(sys.argv[2], 'wb').write(b'P5\\n1 1\\n255\\n' + sys.argv[3].encode()[:1])\n"
    )
    spec = ExternalCodecSpec(
        encode_cmd=f"{sys.executable} {enc} {{quality}} {{input}} {{output}}",
        decode_cmd=f"{sys.executable} {dec} {{input}} {{output}} {{quality}}",
        quality_map=["low", "high"],
    )
    img = ImageBuffer(1, 1, 1, np.zeros(1, np.uint8))
    out, bs = ExternalCodec(spec).reconstruct(img, 2)
    assert bs.payload == b"high"
    assert out.samples[0] == ord("h")


def test_placeholder_in_a_substituted_path_stays(tmp_path, monkeypatch, copy_spec):
    """A temporary directory whose name holds a placeholder reaches the coder
    as it is: each placeholder of a template is replaced once, and a
    substituted value is not searched again."""
    tmp = tmp_path / "t{quality}"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    img = _random_image(4)
    out, bs = ExternalCodec(copy_spec).reconstruct(img, 2)
    assert out.same_as(img)
    assert bs.payload == serialize_pnm(img)


def test_encoder_failure_carries_diagnostics():
    spec = ExternalCodecSpec(
        encode_cmd=f"{sys.executable} -c \"import sys; sys.stderr.write('boom'); sys.exit(1)\"",
        decode_cmd="true",
        quality_map=["1"],
    )
    img = _random_image()
    with pytest.raises(ExternalCodecError, match="exit status 1.*boom"):
        ExternalCodec(spec).reconstruct(img, 1)


def test_timeout():
    spec = ExternalCodecSpec(
        encode_cmd=f"{sys.executable} -c \"import time; time.sleep(30)\"",
        decode_cmd="true",
        quality_map=["1"],
        timeout_s=0.5,
    )
    with pytest.raises(ExternalCodecError, match="timed out"):
        ExternalCodec(spec).reconstruct(_random_image(), 1)


def test_dims_mismatch(tmp_path, copy_spec):
    dec = tmp_path / "dec.py"
    dec.write_text(
        "import sys\nopen(sys.argv[2], 'wb').write(b'P5\\n1 1\\n255\\n\\x00')\n"
    )
    spec = ExternalCodecSpec(
        encode_cmd=copy_spec.encode_cmd,
        decode_cmd=f"{sys.executable} {dec} {{input}} {{output}}",
        quality_map=["1"],
    )
    with pytest.raises(ExternalCodecError, match="dims"):
        ExternalCodec(spec).reconstruct(_random_image(), 1)


def test_missing_command():
    spec = ExternalCodecSpec(
        encode_cmd="/no/such/binary {input} {output}",
        decode_cmd="true",
        quality_map=["1"],
    )
    with pytest.raises(ExternalCodecError, match="not found"):
        ExternalCodec(spec).reconstruct(_random_image(), 1)


def test_non_executable_command(tmp_path):
    enc = tmp_path / "enc"
    enc.write_text("not a program\n")
    enc.chmod(0o644)
    spec = ExternalCodecSpec(encode_cmd=f"{enc} {{input}} {{output}}", decode_cmd="true",
                             quality_map=["1"])
    with pytest.raises(ExternalCodecError, match=f"encoder: cannot run {enc}"):
        ExternalCodec(spec).reconstruct(_random_image(), 1)


def test_channel_mismatch(tmp_path, copy_spec):
    """A decoder that takes gray and writes RGB of the same size fails the
    stage that ran it, naming both shapes."""
    dec = tmp_path / "dec.py"
    dec.write_text(
        "import sys\nopen(sys.argv[2], 'wb').write(b'P6\\n24 16\\n255\\n' + b'\\x00' * 1152)\n"
    )
    spec = ExternalCodecSpec(
        encode_cmd=copy_spec.encode_cmd,
        decode_cmd=f"{sys.executable} {dec} {{input}} {{output}}",
        quality_map=["1"],
    )
    with pytest.raises(ExternalCodecError, match="dims 24x16x3 != input 24x16x1"):
        ExternalCodec(spec).reconstruct(_random_image(), 1)


def test_constructor_checks_types():
    with pytest.raises(ValueError):
        ExternalCodecSpec(encode_cmd=7, decode_cmd=None, quality_map=[None])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(quality_map=st.lists(_JSON, max_size=4) | _JSON, timeout=_JSON)
def test_spec_values_loaded_or_refused(quality_map, timeout):
    """Any JSON quality_map and timeout_s either load as strings and a
    finite positive float, or raise ValueError; only strings and integers
    (not booleans) load, each as its own spelling."""
    doc = {"encode_cmd": "a", "decode_cmd": "b", "quality_map": quality_map,
           "timeout_s": timeout}
    try:
        spec = ExternalCodecSpec.from_dict(doc)
    except ValueError:
        return
    assert all(type(q) in (str, int) for q in quality_map)
    assert spec.quality_map == [str(q) for q in quality_map]
    assert type(spec.timeout_s) is float
    assert math.isfinite(spec.timeout_s) and spec.timeout_s > 0


class TestSpecJson:
    def test_parse(self):
        spec = ExternalCodecSpec.from_json(
            json.dumps(
                {
                    "encode_cmd": "enc {input} {output} {quality}",
                    "decode_cmd": "dec {input} {output}",
                    "quality_map": [5, 15, 25],
                    "timeout_s": 12,
                }
            )
        )
        assert spec.quality_map == ["5", "15", "25"]
        assert spec.timeout_s == 12.0
        assert ExternalCodec(spec).num_levels == 3

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown"):
            ExternalCodecSpec.from_json(
                '{"encode_cmd": "a", "decode_cmd": "b", "quality_map": ["1"], "shell": true}'
            )

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            ExternalCodecSpec.from_json('{"encode_cmd": "a"}')

    @pytest.mark.parametrize("text", [
        "5",
        '{"encode_cmd": 7, "decode_cmd": "b", "quality_map": ["1"]}',
        '{"encode_cmd": "a", "decode_cmd": null, "quality_map": ["1"]}',
        '{"encode_cmd": "a", "decode_cmd": "b", "quality_map": 5}',
        '{"encode_cmd": "a", "decode_cmd": "b", "quality_map": "123"}',
        '{"encode_cmd": "a", "decode_cmd": "b", "quality_map": ["1"], "timeout_s": NaN}',
        '{"encode_cmd": "a", "decode_cmd": "b", "quality_map": ["1"], "timeout_s": Infinity}',
        '{"encode_cmd": "a", "decode_cmd": "b", "quality_map": ["1"], "timeout_s": 1%s}' % ("0" * 400),
        '{"encode_cmd": "a", "decode_cmd": "b", "quality_map": ["1"], "timeout_s": "9"}',
        '{"encode_cmd": "a", "decode_cmd": "b", "quality_map": ["1"], "timeout_s": true}',
        '{"encode_cmd": "a", "decode_cmd": "b", "quality_map": [null]}',
        '{"encode_cmd": "a", "decode_cmd": "b", "quality_map": [true]}',
        '{"encode_cmd": "a", "decode_cmd": "b", "quality_map": [{"a": 1}]}',
        '{"encode_cmd": "a", "decode_cmd": "b", "quality_map": [1.5]}',
        '{"encode_cmd": "", "decode_cmd": "b", "quality_map": ["1"]}',
        '{"encode_cmd": "a", "decode_cmd": "   ", "quality_map": ["1"]}',
    ])
    def test_bad_spec_rejected_at_load(self, text):
        with pytest.raises(ValueError):
            ExternalCodecSpec.from_json(text)

    def test_from_dict_matches_from_json(self):
        doc = {"encode_cmd": "a", "decode_cmd": "b", "quality_map": [1, "2"], "timeout_s": 3}
        assert ExternalCodecSpec.from_dict(doc) == ExternalCodecSpec.from_json(json.dumps(doc))
