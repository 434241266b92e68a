import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from tensorgds import DenseTensor, Subspace

# CLI tests run `python -m tensorgds` in a subprocess; let it import the
# package from this source tree, as the test process does.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_tensor(rng, dims):
    return DenseTensor(rng.standard_normal(dims))


def random_orthonormal(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def random_subspace(rng, n, k):
    return Subspace(random_orthonormal(rng, n, k))


def line(degrees):
    """1-dim subspace of the plane at the given angle from the x axis."""
    t = math.radians(degrees)
    return Subspace(np.array([[math.cos(t)], [math.sin(t)]]))


def edit_model_conf(buf: bytes, edit) -> bytes:
    """Model file bytes with the CONF text (the first section) passed through
    `edit`, re-framed and given a valid checksum."""
    assert buf[6:10] == b"CONF"
    length = struct.unpack_from("<Q", buf, 10)[0]
    text = edit(buf[18 : 18 + length].decode()).encode()
    body = buf[:10] + struct.pack("<Q", len(text)) + text + buf[18 + length : -4]
    return body + struct.pack("<I", zlib.crc32(body))
