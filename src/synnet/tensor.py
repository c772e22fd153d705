"""Dense NCHW tensor conventions: dtype tags, checks, seeded randomness.

All tensors are plain ``numpy.ndarray`` objects with exactly four axes in
(batch, channel, height, width) order, row-major. No broadcasting is allowed
between tensors of different shapes anywhere in this package; every
elementwise operation requires identical shapes so shape bugs fail loudly.

Every file synnet writes goes through `write_file`: to a temporary file
beside the target, then renamed over it.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# dtype tags used throughout (checkpoints store these as 0/1)
DTYPES = {"single": np.float32, "double": np.float64}


class ShapeError(ValueError):
    """A tensor shape violates a precondition."""


class ParameterError(ValueError):
    """A scalar/config argument violates a precondition."""


class UsageError(RuntimeError):
    """An API was called in the wrong order or with the wrong arguments."""


def check_at_least(name: str, value, low):
    """Raise ParameterError naming `name` unless value is >= low and finite."""
    if not value >= low:
        raise ParameterError(f"{name} must be >= {low}, got {value!r}")
    if value == float("inf"):
        raise ParameterError(f"{name} must be finite, got {value!r}")


def check_4d(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Assert x is a 4-D array; returns x unchanged."""
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ShapeError(f"{name} must be a 4-D ndarray")
    return x


def check_tensor(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Assert x is a finite 4-D array; returns x unchanged."""
    check_4d(x, name)
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"{name} contains non-finite values")
    return x


class RngStream:
    """Seeded, reproducible random stream (PCG64).

    Identical seed plus identical draw sequence yields identical values on
    every platform. `child(tag)` derives an independent stream whose seed is
    a stable hash of (seed, tag), so e.g. per-epoch streams are reproducible
    without consuming draws from the parent.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, tag: str) -> "RngStream":
        digest = hashlib.blake2b(
            f"{self.seed}/{tag}".encode(), digest_size=8
        ).digest()
        return RngStream(int.from_bytes(digest, "little"))

    def uniform(self, shape, low: float, high: float, dtype: str = "single") -> np.ndarray:
        return self._gen.uniform(low, high, size=shape).astype(DTYPES[dtype])

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def random(self, n: int = None):
        """One float in [0, 1), or an array of `n` from one draw: PCG64 gives
        the same n values as n single calls."""
        if n is None:
            return float(self._gen.random())
        return self._gen.random(n)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def write_file(path: str, data: bytes):
    """Write `data` to `path` by a temporary file beside it and `os.replace`,
    so a failed write leaves any earlier file whole and no temporary file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
