"""Gauss-Legendre panel rules and the refinement estimate shared across the package."""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["legendre_rule", "gauss_panels", "refinement_gap"]


@functools.lru_cache(maxsize=None)
def legendre_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n and
    shared read-only by every caller."""
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_panels(edges: np.ndarray, nodes_per_panel: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat nodes and weights of the n-node rule on each panel
    [edges[p], edges[p + 1]], panel by panel."""
    x, w = legendre_rule(nodes_per_panel)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def refinement_gap(value, other) -> float:
    """max |value - other| / max(1, |value|) elementwise, value the result
    kept: absolute below 1, relative above; NaN in either gives NaN."""
    value = np.asarray(value)
    return float(np.max(np.abs(value - other) / np.maximum(1.0, np.abs(value)), initial=0.0))
