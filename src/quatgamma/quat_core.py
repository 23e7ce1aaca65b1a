"""Quaternions over the basis {1, i, j, k}, and the one reader of 4D points.

Conventions used throughout the package:

* reduced norm   n(x) = x·conj(x) = x0^2 + x1^2 + x2^2 + x3^2
* module         |x|  = n(x)^2  (the additive-Haar scaling factor)
* character      lambda(x) = exp(-4*pi*1j*x0), i.e. e^{-2 pi i (x + conj(x))}
* polar form     x = r*g0 with r = n(x)^{1/2} and n(g0) = 1; g0 has class
                 angle theta with cos(theta) = x0/r

The array routines of the package (the 4D oracles and the additive
picture) read their points through _as_points: a Quaternion, one row of
four coordinates, or a sequence or array of either becomes an (n, 4)
float array, and any other shape raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = ["Quaternion"]


@dataclass(frozen=True)
class Quaternion:
    """A quaternion x0 + x1*i + x2*j + x3*k with real coordinates."""

    x0: float
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    @property
    def coords(self) -> tuple:
        return (self.x0, self.x1, self.x2, self.x3)


_Points = Union[Quaternion, Sequence[float], Sequence[Union[Quaternion, Sequence[float]]], np.ndarray]


def _as_points(points: _Points) -> np.ndarray:
    """(n, 4) float coordinates of a Quaternion, one row, or a sequence or
    array of either; [] gives (0, 4), and a non-finite coordinate raises."""
    if isinstance(points, Quaternion):
        points = points.coords
    elif not isinstance(points, np.ndarray):
        points = [p.coords if isinstance(p, Quaternion) else p for p in points]
    pts = np.asarray(points, dtype=float)
    if pts.shape in ((0,), (4,)):
        pts = pts.reshape(-1, 4)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(f"points must be quaternions or rows of 4 coordinates, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts
