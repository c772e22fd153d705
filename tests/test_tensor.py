import numpy as np

from synnet.tensor import RngStream


def test_row_major_layout():
    # flat index of (n,c,h,w) = ((n*C + c)*H + h)*W + w
    t = np.zeros((2, 3, 4, 5))
    t[1, 2, 3, 4] = 7.0
    flat = ((1 * 3 + 2) * 4 + 3) * 5 + 4
    assert t.ravel()[flat] == 7.0


def test_rng_child_streams_are_independent_and_stable():
    r = RngStream(42)
    a = r.child("epoch0").uniform((4,), 0, 1)
    b = RngStream(42).child("epoch0").uniform((4,), 0, 1)
    c = RngStream(42).child("epoch1").uniform((4,), 0, 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
