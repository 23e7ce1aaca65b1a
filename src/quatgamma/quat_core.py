"""The quaternion conventions, and the one reader of 4D points.

Conventions used throughout the package, for x = x0 + x1*i + x2*j + x3*k:

* reduced norm   n(x) = x·conj(x) = x0^2 + x1^2 + x2^2 + x3^2
* module         |x|  = n(x)^2  (the additive-Haar scaling factor)
* character      lambda(x) = exp(-4*pi*1j*x0), i.e. e^{-2 pi i (x + conj(x))}
* polar form     x = r*g0 with r = n(x)^{1/2} and n(g0) = 1; g0 has class
                 angle theta with cos(theta) = x0/r

The array routines of the package (the 4D oracles and the additive
picture) read their points through _as_points: one row of four
coordinates, a sequence of rows or an (n, 4) array becomes an (n, 4)
float array, and any other shape raises ValueError.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__: list = []

_Points = Union[Sequence[float], Sequence[Sequence[float]], np.ndarray]


def _as_points(points: _Points) -> np.ndarray:
    """(n, 4) float coordinates of one row, a sequence of rows or an
    (n, 4) array; [] gives (0, 4), and a non-finite coordinate raises."""
    pts = np.asarray(points, dtype=float)
    if pts.shape in ((0,), (4,)):
        pts = pts.reshape(-1, 4)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(f"points must be rows of 4 coordinates, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts
