import json
import shutil
import sys

import numpy as np
import pytest

from codeclab import (
    ExternalCodec,
    ExternalCodecError,
    ExternalCodecSpec,
    ImageBuffer,
    serialize_pnm,
)


@pytest.fixture()
def copy_spec():
    cp = shutil.which("cp")
    return ExternalCodecSpec(
        encode_cmd=f"{cp} {{input}} {{output}}",
        decode_cmd=f"{cp} {{input}} {{output}}",
        quality_map=["1", "2", "3"],
    )


def _reconstruct_bpp(img, q, spec):
    codec = ExternalCodec(spec)
    out, bs = codec.reconstruct(img, q)
    return out, codec.bpp(bs, img)


def _random_image(seed=0, w=24, h=16):
    rng = np.random.default_rng(seed)
    return ImageBuffer(w, h, 1, rng.integers(0, 256, w * h, dtype=np.uint8))


def test_identity_pipeline(copy_spec):
    img = _random_image()
    out, bpp = _reconstruct_bpp(img, 2, copy_spec)
    assert out.same_as(img)
    # encoded file is the PNM itself
    assert bpp == 8.0 * len(serialize_pnm(img)) / (img.width * img.height)


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
    ])
    def test_bad_spec_rejected_at_load(self, text):
        with pytest.raises(ValueError):
            ExternalCodecSpec.from_json(text)

    def test_from_dict_matches_from_json(self):
        doc = {"encode_cmd": "a", "decode_cmd": "b", "quality_map": [1, "2"], "timeout_s": 3}
        assert ExternalCodecSpec.from_dict(doc) == ExternalCodecSpec.from_json(json.dumps(doc))
