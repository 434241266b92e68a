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


def gathered_eigh_descending(matrix):
    """`eigh`'s eigenpairs reordered by a stable argsort of the negated
    eigenvalues, so that equal values keep `eigh`'s ascending order."""
    evals, evecs = np.linalg.eigh(matrix)
    order = np.argsort(-evals, axis=-1, kind="stable")
    return np.take_along_axis(evals, order, -1), np.take_along_axis(evecs, order[..., None, :], -1)


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


def edit_model_matrix(buf: bytes, name: str, edit) -> bytes:
    """Model file bytes with the matrix of the MATX section `name` passed
    through `edit`, re-framed and given a valid checksum."""
    from tensorgds.dataio import _matrix_from_bytes, _named_matrix

    pos, sections = 6, [buf[:6]]
    while pos < len(buf) - 4:
        length = struct.unpack_from("<Q", buf, pos + 4)[0]
        section = buf[pos : pos + 12 + length]
        if section[:4] == b"MATX":
            size = struct.unpack_from("<H", section, 12)[0]
            if section[14 : 14 + size].decode() == name:
                section = _named_matrix(name, edit(_matrix_from_bytes(section[14 + size :])))
        sections.append(section)
        pos += 12 + length
    body = b"".join(sections)
    return body + struct.pack("<I", zlib.crc32(body))
