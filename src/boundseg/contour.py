"""Distance map -> closed contour -> filled mask (the BRN baseline).

The chain is: threshold the predicted map, thin the resulting band to a
skeleton, link nearby skeleton pixels into an undirected graph, take the
minimum spanning tree of the largest component, walk its maximum-weight
path, close that path with a straight segment and flood-fill the
interior.  Everything is deterministic: vertices are kept in row-major
order and all ties break lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import DegenerateContour, EmptyResult, OpenRegion

DEFAULT_TAU = 0.6
DEFAULT_LINK_RADIUS = 1.5
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


def _neighbor_rings(g: np.ndarray):
    """The eight neighbor planes P2..P9 (clockwise from north) of a padded grid."""
    p = np.pad(g, 1).astype(np.uint8)
    return (
        p[:-2, 1:-1],   # P2 north
        p[:-2, 2:],     # P3 north-east
        p[1:-1, 2:],    # P4 east
        p[2:, 2:],      # P5 south-east
        p[2:, 1:-1],    # P6 south
        p[2:, :-2],     # P7 south-west
        p[1:-1, :-2],   # P8 west
        p[:-2, :-2],    # P9 north-west
    )


_RING_OFFSETS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _prune_redundant(g: np.ndarray) -> np.ndarray:
    """Drop staircase leftovers: pixels with >= 3 neighbors whose removal
    keeps the local neighborhood a single 8-connected piece.

    Zhang-Suen occasionally parks an extra pixel on the inside of a
    corner; curve pixels proper have two non-adjacent neighbors and are
    never touched, nor are endpoints.
    """
    h, w = g.shape
    changed = True
    while changed:
        changed = False
        for y, x in np.argwhere(g):
            nbrs = [
                (dy, dx)
                for dy, dx in _RING_OFFSETS
                if 0 <= y + dy < h and 0 <= x + dx < w and g[y + dy, x + dx]
            ]
            if len(nbrs) < 3:
                continue
            # component count among the neighbors themselves
            comp = {n: i for i, n in enumerate(nbrs)}
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1 :]:
                    if max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1:
                        ra, rb = comp[a], comp[b]
                        if ra != rb:
                            for k in comp:
                                if comp[k] == rb:
                                    comp[k] = ra
            if len(set(comp.values())) == 1:
                g[y, x] = False
                changed = True
    return g


def thin(grid: np.ndarray) -> np.ndarray:
    """Zhang-Suen thinning to a 1-pixel-wide, topology-preserving skeleton."""
    g = np.asarray(grid).astype(bool).copy()
    while True:
        changed = False
        for step in (0, 1):
            p2, p3, p4, p5, p6, p7, p8, p9 = _neighbor_rings(g)
            ring = (p2, p3, p4, p5, p6, p7, p8, p9, p2)
            b = sum(ring[:8], np.zeros_like(p2, dtype=np.int32))
            a = sum(((ring[k] == 0) & (ring[k + 1] == 1)) for k in range(8))
            cond = g & (b >= 2) & (b <= 6) & (a == 1)
            if step == 0:
                cond &= (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
            else:
                cond &= (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
            if cond.any():
                g[cond] = False
                changed = True
        if not changed:
            return _prune_redundant(g)


def build_graph(pixels: np.ndarray, link_radius: float) -> PixelGraph:
    """Link every pixel pair within Euclidean distance link_radius.

    `pixels` is a boolean grid; vertices come out in row-major order,
    edge weight is the pixel distance.
    """
    coords = np.argwhere(np.asarray(pixels))
    vertices = [tuple(int(c) for c in row) for row in coords]
    index = {v: i for i, v in enumerate(vertices)}

    r = int(np.floor(link_radius))
    offsets = []
    for dy in range(0, r + 1):
        for dx in range(-r, r + 1):
            if dy == 0 and dx <= 0:
                continue  # each unordered pair once
            d = np.hypot(dy, dx)
            if d <= link_radius:
                offsets.append((dy, dx, float(d)))

    edges = []
    for i, (y, x) in enumerate(vertices):
        for dy, dx, d in offsets:
            j = index.get((y + dy, x + dx))
            if j is not None:
                edges.append((d, min(i, j), max(i, j)))
    return PixelGraph(vertices=vertices, edges=edges)


def _forest(graph: PixelGraph):
    """One Kruskal pass over a non-empty graph, edges in (weight, i, j)
    order: the minimum spanning forest, each vertex's component root, and
    the root of the largest component (ties broken toward the component
    holding the smallest vertex index)."""
    dsu = _DSU(len(graph.vertices))
    forest = [e for e in sorted(graph.edges) if dsu.union(e[1], e[2])]
    roots = [dsu.find(i) for i in range(len(graph.vertices))]
    # roots in order of first appearance; max keeps the first of equals
    best = max(dict.fromkeys(roots), key=lambda r: dsu.size[r])
    return forest, roots, best


def largest_component_fraction(graph: PixelGraph) -> float:
    """|largest connected component| / |vertices| (1.0 for empty graphs)."""
    if not graph.vertices:
        return 1.0
    _, roots, best = _forest(graph)
    return roots.count(best) / len(graph.vertices)


def minimum_spanning_tree(graph: PixelGraph) -> list[tuple[float, int, int]]:
    """Kruskal MST edges of the LARGEST connected component.

    Edges are considered in (weight, i, j) order so the result is unique
    even with tied weights.
    """
    if not graph.vertices:
        raise EmptyResult("graph has no vertices")
    forest, roots, best = _forest(graph)
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

    The exterior is found by a 4-connected flood from the frame border;
    the mask is everything else (curve plus interior).
    """
    if len(path) < MIN_PATH_VERTICES:
        raise DegenerateContour(
            f"path has {len(path)} vertices, need >= {MIN_PATH_VERTICES}")
    h, w = shape
    curve = np.zeros((h, w), dtype=bool)
    segments = list(zip(path, path[1:])) + [(path[-1], path[0])]
    for p, q in segments:
        for y, x in bresenham(p, q):
            if not (0 <= y < h and 0 <= x < w):
                raise OpenRegion(f"contour pixel ({y}, {x}) outside frame {h}x{w}")
            curve[y, x] = True

    mask = ndimage.binary_fill_holes(curve)
    if not (mask & ~curve).any():
        raise OpenRegion("closed curve encloses no interior")
    return mask.astype(np.uint8)


def brn_segment(dmap: np.ndarray, tau: float = DEFAULT_TAU,
                link_radius: float = DEFAULT_LINK_RADIUS) -> np.ndarray:
    """Full post-processing chain: distance map in, filled mask out."""
    band = binarize(dmap, tau)
    skel = thin(band)
    graph = build_graph(skel, link_radius)
    # a fragmented skeleton (gaps wider than link_radius) gets a second
    # chance at a coarser linking radius
    if largest_component_fraction(graph) < 0.5 and link_radius < FALLBACK_LINK_RADIUS:
        graph = build_graph(skel, FALLBACK_LINK_RADIUS)
    path = mst_max_path(graph)
    return close_and_fill(path, dmap.shape)
