import numpy as np
import pytest

from codeclab import BlockDctCodec, Dataset, ImageBuffer, serialize_pnm


def _clip8(a):
    return np.clip(np.round(a), 0, 255).astype(np.uint8)


def make_test_images(width=192, height=128):
    """Three deterministic grayscale images with different texture mixes."""
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    rng = np.random.default_rng(20240817)
    waves = 128 + 60 * np.sin(xx / 11.0) + 40 * np.cos(yy / 7.0)
    r2 = ((xx - width / 2) / (width / 3)) ** 2 + ((yy - height / 2) / (height / 3)) ** 2
    blob = 30 + 220 * np.exp(-r2) + 10 * np.sin(xx / 3.0)
    checker = (
        40 + 1.1 * xx + 0.6 * yy
        + 30 * (((xx // 16) + (yy // 16)) % 2)
        + rng.normal(0.0, 4.0, (height, width))
    )
    return [
        ImageBuffer(width, height, 1, _clip8(plane))
        for plane in (waves, blob, checker)
    ]


@pytest.fixture(scope="session")
def gray_images():
    return make_test_images()


@pytest.fixture(scope="session")
def image_dataset(gray_images):
    return Dataset(
        items=list(gray_images),
        item_names=[f"img{i}.pgm" for i in range(len(gray_images))],
    )


@pytest.fixture(scope="session")
def image_dir(tmp_path_factory, gray_images):
    d = tmp_path_factory.mktemp("images")
    for i, img in enumerate(gray_images):
        (d / f"img{i}.pgm").write_bytes(serialize_pnm(img))
    return d


@pytest.fixture(scope="session")
def dct_codec():
    return BlockDctCodec()
