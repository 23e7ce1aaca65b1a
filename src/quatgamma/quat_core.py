"""Quaternion arithmetic over the basis {1, i, j, k}.

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

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Quaternion",
    "mul",
    "conj",
    "reduced_norm",
    "module",
    "class_angle",
]


@dataclass(frozen=True)
class Quaternion:
    """A quaternion x0 + x1*i + x2*j + x3*k with real coordinates."""

    x0: float
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def scale(self, c: float) -> "Quaternion":
        return Quaternion(c * self.x0, c * self.x1, c * self.x2, c * self.x3)

    @property
    def coords(self) -> tuple:
        return (self.x0, self.x1, self.x2, self.x3)


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Quaternion product (noncommutative; i*j = k = -j*i)."""
    return Quaternion(
        p.x0 * q.x0 - p.x1 * q.x1 - p.x2 * q.x2 - p.x3 * q.x3,
        p.x0 * q.x1 + p.x1 * q.x0 + p.x2 * q.x3 - p.x3 * q.x2,
        p.x0 * q.x2 - p.x1 * q.x3 + p.x2 * q.x0 + p.x3 * q.x1,
        p.x0 * q.x3 + p.x1 * q.x2 - p.x2 * q.x1 + p.x3 * q.x0,
    )


def conj(q: Quaternion) -> Quaternion:
    return Quaternion(q.x0, -q.x1, -q.x2, -q.x3)


def reduced_norm(q: Quaternion) -> float:
    """n(q) = q*conj(q); multiplicative, zero iff q = 0."""
    return q.x0 * q.x0 + q.x1 * q.x1 + q.x2 * q.x2 + q.x3 * q.x3


def module(q: Quaternion) -> float:
    """|q| = n(q)^2, the factor by which left (or right) translation by q
    scales the additive Haar measure."""
    n = reduced_norm(q)
    return n * n


def class_angle(q: Quaternion) -> float:
    """Class angle theta in [0, pi] of the unit part of q: cos(theta) = x0/r.

    Conjugation-invariant; defined for any nonzero quaternion.
    """
    r = math.sqrt(reduced_norm(q))
    if r == 0.0:
        raise ValueError("class angle of the zero quaternion is undefined")
    c = q.x0 / r
    return math.acos(min(1.0, max(-1.0, c)))


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
