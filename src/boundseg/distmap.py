"""Binary masks to normalized exponential boundary distance maps.

The map is exp(-D) where D is the exact Euclidean distance (in pixels)
to the nearest mask boundary pixel, computed over the whole frame;
boundary pixels therefore carry the maximum value 1.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .errors import EmptyMask, EmptySiteSet


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels with a background 4-neighbor (frame border counts
    as background).  Returns an (k, 2) array of (row, col) coordinates in
    row-major order.
    """
    m = np.asarray(mask) != 0
    if m.ndim != 2:
        raise EmptyMask(f"mask must be 2-D, got shape {m.shape}")
    if not m.any():
        raise EmptyMask("mask has no foreground pixels")
    padded = np.pad(m, 1, constant_values=False)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1] &
                padded[1:-1, :-2] & padded[1:-1, 2:])
    boundary = m & ~interior
    return np.argwhere(boundary)


def euclidean_dt(sites: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Exact minimal Euclidean distance from every pixel to the nearest site.

    `sites` is an (k, 2) array of (row, col) coordinates inside `shape`.
    SciPy's exact transform does the work (not a chamfer approximation).
    """
    sites = np.asarray(sites)
    h, w = shape
    if sites.size == 0:
        raise EmptySiteSet("site set is empty")
    if sites.ndim != 2 or sites.shape[1] != 2:
        raise EmptySiteSet(f"sites must be (k, 2) coordinates, got shape {sites.shape}")
    if (sites < 0).any() or (sites[:, 0] >= h).any() or (sites[:, 1] >= w).any():
        raise EmptySiteSet("site coordinates fall outside the grid")

    grid = np.ones((h, w), dtype=bool)
    grid[sites[:, 0], sites[:, 1]] = False
    return ndimage.distance_transform_edt(grid)


def mask_to_distance_map(mask: np.ndarray) -> np.ndarray:
    """exp(-D) over the whole frame; exactly 1.0 on boundary pixels."""
    b = boundary_pixels(mask)
    d = euclidean_dt(b, mask.shape)
    return np.exp(-d).astype(np.float32)
