"""The np.pad 3x3 stencil and Sobel magnitude that the loss's flat-run
stencil replaced, kept verbatim as the oracle of the bit-identity contract
of both `loss.sobel_magnitude` and `data.generate_phantom`. The tests compare
against it run here, never against stored digests."""

import numpy as np


def _oracle_correlate3x3(img4, kernel):
    xp = np.pad(img4, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
    h, w = img4.shape[2], img4.shape[3]
    out = np.zeros_like(img4, dtype=np.float64)
    for u in range(3):
        for v in range(3):
            if kernel[u, v]:
                out += kernel[u, v] * xp[:, :, u:u + h, v:v + w]
    return out


def _oracle_sobel_magnitude(img4):
    sobel_x = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
    gx = _oracle_correlate3x3(img4, sobel_x)
    gy = _oracle_correlate3x3(img4, sobel_x.T)
    return np.sqrt(gx * gx + gy * gy)
