"""Distance map -> closed contour -> filled mask (the BRN baseline).

The chain is: threshold the predicted map, thin the resulting band to a
skeleton, link nearby skeleton pixels into an undirected graph, take the
minimum spanning tree of the largest component, walk its maximum-weight
path, close that path with a straight segment and flood-fill the
interior.  Everything is deterministic: vertices are kept in row-major
order and all ties break lexicographically.

Each stage costs in proportion to the band or the curve, not the frame:

- `brn_segment` cuts the thresholded band to its bounding box, runs the
  whole chain on that crop and pastes the mask back into a zero frame.
  The result is the frame's: thinning pads with zeros, vertex and edge
  order survive the crop, and a complement pixel on the box's edge can
  step outward without crossing the curve, so it is exterior exactly
  like one on the frame border.
- Thinning reads each pixel's eight neighbours P2..P9 as one 8-bit code
  and looks it up in a 256-entry table per Zhang-Suen sub-iteration,
  built from the rule written once in `_zhang_suen_deletes`.  Only the
  foreground pixels with a background neighbour are evaluated: code 255
  (eight foreground neighbours) is never deleted.  After a parallel
  sub-iteration the next candidates are the survivors plus the
  foreground neighbours of the deleted pixels, the only pixels that
  gained a background neighbour.
- Pruning of staircase pixels is one more table over the same codes.
  Its row-major passes are sequential (each pixel sees the deletions
  made earlier in the pass), but a pass visits only the pixels that had
  at least three neighbours when it began: deletions only lower a count,
  so no other pixel could qualify.
- The graph looks up a grid of vertex indices at each link offset, a
  bounded group of offsets at a time, so its memory follows its edges.
- Kruskal runs once per graph: the component test and the spanning tree
  share the forest memoised on the `PixelGraph`.
- The closed curve is set directly from the path's pixels; `bresenham`
  fills in only the steps longer than one pixel and the closing segment.
  The fill labels the complement once, 4-connected, and keeps every
  label that does not touch the frame border.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import ndimage

from .config import DEFAULT_LINK_RADIUS, DEFAULT_TAU
from .errors import DegenerateContour, EmptyResult, InvalidParams, OpenRegion

FALLBACK_LINK_RADIUS = 3.0
MIN_PATH_VERTICES = 8


@dataclass
class PixelGraph:
    """Undirected graph over pixel coordinates.

    vertices are (y, x) tuples in row-major order; edges are
    (weight, i, j) with i < j indexing into `vertices`.
    """

    vertices: list[tuple[int, int]] = field(default_factory=list)
    edges: list[tuple[float, int, int]] = field(default_factory=list)

    @cached_property
    def forest(self):
        """One Kruskal pass over a non-empty graph, edges in (weight, i, j)
        order: the minimum spanning forest, each vertex's component root,
        and the root of the largest component (ties broken toward the
        component holding the smallest vertex index).  Computed on first
        use and kept, so the graph must not change after that."""
        dsu = _DSU(len(self.vertices))
        forest = [e for e in sorted(self.edges) if dsu.union(e[1], e[2])]
        roots = [dsu.find(i) for i in range(len(self.vertices))]
        # roots in order of first appearance; max keeps the first of equals
        best = max(dict.fromkeys(roots), key=lambda r: dsu.size[r])
        return forest, roots, best


class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def binarize(dmap: np.ndarray, tau: float) -> np.ndarray:
    """Boolean grid of pixels with value >= tau."""
    if not 0.0 < tau < 1.0:
        raise EmptyResult(f"tau must lie in (0, 1), got {tau}")
    out = np.asarray(dmap) >= tau
    if not out.any():
        raise EmptyResult(f"no pixel reaches threshold {tau}")
    return out


# Neighbour k of a pixel, P2..P9 clockwise from north, sets bit k of the
# pixel's 8-bit neighbour code.
_RING_OFFSETS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _zhang_suen_deletes(code: int, step: int) -> bool:
    """The Zhang-Suen rule for a foreground pixel in sub-iteration `step`:
    2 <= B <= 6 neighbours, A == 1 background-to-foreground transition
    around the ring, and the step's two products of P2, P4, P6, P8 zero."""
    ring = [(code >> k) & 1 for k in range(8)]
    p2, _, p4, _, p6, _, p8, _ = ring
    b = sum(ring)
    a = sum(ring[k] == 0 and ring[(k + 1) % 8] == 1 for k in range(8))
    if step == 0:
        products = p2 * p4 * p6 == 0 and p4 * p6 * p8 == 0
    else:
        products = p2 * p4 * p8 == 0 and p2 * p6 * p8 == 0
    return 2 <= b <= 6 and a == 1 and products


def _is_staircase(code: int) -> bool:
    """At least three neighbours, which form one 8-connected piece among
    themselves: the pixel between them is redundant."""
    nbrs = [off for k, off in enumerate(_RING_OFFSETS) if (code >> k) & 1]
    if len(nbrs) < 3:
        return False
    seen, todo = {nbrs[0]}, [nbrs[0]]
    while todo:
        a = todo.pop()
        for b in nbrs:
            if b not in seen and max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1:
                seen.add(b)
                todo.append(b)
    return len(seen) == len(nbrs)


_THIN_DELETES = tuple(np.array([_zhang_suen_deletes(c, step) for c in range(256)])
                      for step in (0, 1))
_STAIRCASE = np.array([_is_staircase(c) for c in range(256)])
_NEIGHBOR_COUNT = np.array([bin(c).count("1") for c in range(256)])


def _codes(flat: np.ndarray, idx: np.ndarray, offsets) -> np.ndarray:
    """Neighbour codes of the pixels at flat indices idx of a padded grid."""
    code = np.zeros(np.shape(idx), dtype=np.uint8)
    for k, off in enumerate(offsets):
        code |= flat[idx + off] << k
    return code


def _prune_redundant(flat: np.ndarray, offsets) -> None:
    """Drop staircase leftovers, in place, in row-major passes until a pass
    drops nothing.

    Zhang-Suen occasionally parks an extra pixel on the inside of a
    corner; curve pixels proper have two non-adjacent neighbors and are
    never touched, nor are endpoints.  A pass decides pixel by pixel, on
    the grid as the pass has left it so far, so its visits stay sequential.
    It visits only the pixels with at least three neighbours when it
    begins: counts only fall, so no other pixel can be a staircase.
    """
    fg = np.flatnonzero(flat)
    changed = True
    while changed:
        changed = False
        fg = fg[flat[fg] == 1]
        visit = fg[_NEIGHBOR_COUNT[_codes(flat, fg, offsets)] >= 3]
        for i in visit.tolist():
            if _STAIRCASE[_codes(flat, i, offsets)]:
                flat[i] = 0
                changed = True


def thin(grid: np.ndarray) -> np.ndarray:
    """Zhang-Suen thinning to a 1-pixel-wide, topology-preserving skeleton."""
    g = np.asarray(grid)
    h, w = g.shape
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = g.astype(bool, copy=False)
    flat = padded.ravel()
    offsets = [dy * (w + 2) + dx for dy, dx in _RING_OFFSETS]
    fg = np.flatnonzero(flat)
    # only a pixel with a background neighbour (code < 255) can go, and
    # only the neighbours of a deleted pixel gain one
    cand = fg[_codes(flat, fg, offsets) != 255]
    changed = True
    while changed:
        changed = False
        for deletes in _THIN_DELETES:
            dead = deletes[_codes(flat, cand, offsets)]
            if dead.any():
                gone = cand[dead]
                flat[gone] = 0
                nbrs = np.add.outer(gone, offsets).ravel()
                cand = np.union1d(cand[~dead], nbrs[flat[nbrs] == 1])
                changed = True
    _prune_redundant(flat, offsets)
    return padded[1:-1, 1:-1].astype(bool)


# vertex-offset lookups per group in `build_graph`: 512 KiB of indices
_LINK_GROUP = 1 << 16


def build_graph(pixels: np.ndarray, link_radius: float) -> PixelGraph:
    """Link every pixel pair within Euclidean distance link_radius.

    `pixels` is a boolean grid; vertices come out in row-major order,
    edge weight is the pixel distance.  Edges come out by their first
    vertex, then in the order of the link offsets below.  The radius must
    be finite and at least 1, the smallest that links a pixel pair;
    offsets longer than the grid, which reach no pixel, are cut.
    """
    if not np.isfinite(link_radius):
        raise InvalidParams(f"link radius must be finite, got {link_radius}")
    if link_radius < 1:
        raise InvalidParams(f"link radius must be at least 1, got {link_radius}")
    grid = np.asarray(pixels)
    coords = np.argwhere(grid)
    vertices = list(map(tuple, coords.tolist()))

    h, w = grid.shape
    r = max(min(int(np.floor(link_radius)), max(h, w) - 1), 0)
    # offsets row-major over dy >= 0, each unordered pair once: the other
    # pixel of a pair at dy == 0, dx <= 0 comes later
    dy, dx = np.mgrid[0:r + 1, -r:r + 1]
    dist = np.hypot(dy, dx)
    keep = (dist <= link_radius) & ((dy > 0) | (dx > 0))
    dy, dx, dist = dy[keep], dx[keep], dist[keep]

    # vertex index of each pixel, -1 off the pixels, with r columns of
    # margin either side and r rows below so every offset stays inside
    index = np.full((h + r, w + 2 * r), -1, dtype=np.intp)
    ys, xs = coords[:, 0], coords[:, 1] + r
    index[ys, xs] = np.arange(len(coords))
    # (vertex, offset, neighbour) of each edge, a bounded group of offsets
    # at a time so that memory follows the edges, not pixels x offsets
    group = max(_LINK_GROUP // max(len(coords), 1), 1)
    hits = [np.empty((3, 0), dtype=np.intp)]
    for k0 in range(0, len(dist), group):
        nbr = index[np.add.outer(ys, dy[k0:k0 + group]),
                    np.add.outer(xs, dx[k0:k0 + group])]
        i, k = np.nonzero(nbr >= 0)
        hits.append(np.stack([i, k + k0, nbr[i, k]]))
    i, k, j = np.concatenate(hits, axis=1)
    # groups come in offset order, so a stable sort by vertex restores
    # the (vertex, offset) order
    order = np.argsort(i, kind="stable")
    edges = list(zip(dist[k[order]].tolist(), i[order].tolist(), j[order].tolist()))
    return PixelGraph(vertices=vertices, edges=edges)


def largest_component_fraction(graph: PixelGraph) -> float:
    """|largest connected component| / |vertices| (1.0 for empty graphs)."""
    if not graph.vertices:
        return 1.0
    _, roots, best = graph.forest
    return roots.count(best) / len(graph.vertices)


def minimum_spanning_tree(graph: PixelGraph) -> list[tuple[float, int, int]]:
    """Kruskal MST edges of the LARGEST connected component.

    Edges are considered in (weight, i, j) order so the result is unique
    even with tied weights.
    """
    if not graph.vertices:
        raise EmptyResult("graph has no vertices")
    forest, roots, best = graph.forest
    return [e for e in forest if roots[e[1]] == best]


def _farthest(start: int, adj: dict[int, list[tuple[int, float]]]):
    """Weighted-farthest vertex from start in a tree, with parent links.

    Ties on distance break toward the smaller vertex index.
    """
    dist = {start: 0.0}
    parent = {start: -1}
    stack = [start]
    while stack:
        u = stack.pop()
        for v, w in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + w
                parent[v] = u
                stack.append(v)
    far = min(dist, key=lambda v: (-dist[v], v))
    return far, dist[far], parent


def mst_max_path(graph: PixelGraph) -> list[tuple[int, int]]:
    """Maximum-weight simple path (weighted diameter) of the MST of the
    largest component, as an ordered list of pixel coordinates."""
    tree = minimum_spanning_tree(graph)
    if not tree:
        # single-vertex component
        raise DegenerateContour("largest component has a single pixel")
    adj: dict[int, list[tuple[int, float]]] = {}
    for w, i, j in tree:
        adj.setdefault(i, []).append((j, w))
        adj.setdefault(j, []).append((i, w))
    start = min(adj)
    u, _, _ = _farthest(start, adj)
    v, _, parent = _farthest(u, adj)
    path = []
    at = v
    while at != -1:
        path.append(graph.vertices[at])
        at = parent[at]
    # path currently runs v -> u; orientation is irrelevant downstream but
    # fix it for determinism
    path.reverse()
    if len(path) < MIN_PATH_VERTICES:
        raise DegenerateContour(
            f"max path has {len(path)} vertices, need >= {MIN_PATH_VERTICES}")
    return path


def bresenham(p: tuple[int, int], q: tuple[int, int]) -> list[tuple[int, int]]:
    """All integer pixels of the discrete segment from p to q, inclusive."""
    y0, x0 = p
    y1, x1 = q
    dy = abs(y1 - y0)
    dx = abs(x1 - x0)
    sy = 1 if y1 >= y0 else -1
    sx = 1 if x1 >= x0 else -1
    out = []
    if dx >= dy:
        err = dx // 2
        y = y0
        for x in range(x0, x1 + sx, sx):
            out.append((y, x))
            err -= dy
            if err < 0:
                y += sy
                err += dx
    else:
        err = dy // 2
        x = x0
        for y in range(y0, y1 + sy, sy):
            out.append((y, x))
            err -= dx
            if err < 0:
                x += sx
                err += dy
    return out


def close_and_fill(path: list[tuple[int, int]], shape: tuple[int, int]) -> np.ndarray:
    """Join the path's endpoints, rasterize the closed curve, and fill.

    The exterior is every 4-connected piece of the complement that
    touches the frame border; the mask is everything else (curve plus
    interior).
    """
    if len(path) < MIN_PATH_VERTICES:
        raise DegenerateContour(
            f"path has {len(path)} vertices, need >= {MIN_PATH_VERTICES}")
    h, w = shape
    # the curve's pixels in drawing order, each segment's end left to the
    # next: a step to an 8-neighbour adds only its start, a longer step
    # (and the closing one) its bresenham pixels
    pts = np.asarray(path, dtype=np.intp)
    steps = np.abs(np.roll(pts, -1, axis=0) - pts).max(axis=1)
    pieces, start = [], 0
    for k in np.flatnonzero(steps > 1).tolist():
        pieces += [pts[start:k], bresenham(path[k], path[(k + 1) % len(path)])[:-1]]
        start = k + 1
    pieces.append(pts[start:])
    ys, xs = np.concatenate(pieces).T
    outside = (ys < 0) | (ys >= h) | (xs < 0) | (xs >= w)
    if outside.any():
        first = int(np.argmax(outside))
        raise OpenRegion(f"contour pixel ({ys[first]}, {xs[first]}) outside frame {h}x{w}")
    curve = np.zeros((h, w), dtype=bool)
    curve[ys, xs] = True

    # 4-connected pieces of the complement; label 0 marks the curve
    labels, count = ndimage.label(~curve)
    exterior = np.zeros(count + 1, dtype=bool)
    exterior[labels[[0, -1], :]] = True
    exterior[labels[:, [0, -1]]] = True
    exterior[0] = False
    mask = ~exterior[labels]
    if not (mask & ~curve).any():
        raise OpenRegion("closed curve encloses no interior")
    return mask.astype(np.uint8)


def brn_segment(dmap: np.ndarray, tau: float = DEFAULT_TAU,
                link_radius: float = DEFAULT_LINK_RADIUS) -> np.ndarray:
    """Full post-processing chain: distance map in, filled mask out."""
    band = binarize(dmap, tau)
    # every stage runs on the band's bounding box (see the module notes)
    rows, cols = np.flatnonzero(band.any(axis=1)), np.flatnonzero(band.any(axis=0))
    box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    skel = thin(band[box])
    graph = build_graph(skel, link_radius)
    # a fragmented skeleton (gaps wider than link_radius) gets a second
    # chance at a coarser linking radius
    if largest_component_fraction(graph) < 0.5 and link_radius < FALLBACK_LINK_RADIUS:
        graph = build_graph(skel, FALLBACK_LINK_RADIUS)
    path = mst_max_path(graph)
    mask = np.zeros(band.shape, dtype=np.uint8)
    mask[box] = close_and_fill(path, skel.shape)
    return mask
