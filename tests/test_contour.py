import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from boundseg import contour
from boundseg.contour import (
    PixelGraph,
    binarize,
    bresenham,
    brn_segment,
    build_graph,
    close_and_fill,
    largest_component_fraction,
    minimum_spanning_tree,
    mst_max_path,
    thin,
)
from boundseg.distmap import mask_to_distance_map
from boundseg.errors import (
    BoundsegError,
    DataError,
    DegenerateContour,
    EmptyResult,
    OpenRegion,
)
from boundseg.metrics import dice
from boundseg.phantom import generate_sample


def square_ring(h, w, lo, hi):
    """1-px square ring with corners (lo, lo) and (hi, hi)."""
    g = np.zeros((h, w), dtype=bool)
    g[lo, lo : hi + 1] = True
    g[hi, lo : hi + 1] = True
    g[lo : hi + 1, lo] = True
    g[lo : hi + 1, hi] = True
    return g


def disk_mask(h, w, cy, cx, r):
    ii, jj = np.mgrid[0:h, 0:w]
    return (((ii - cy) ** 2 + (jj - cx) ** 2) <= r * r).astype(np.uint8)


# --- oracles: the whole-frame and per-pixel implementations that the
# band-proportional stages replaced, kept to pin their exact output ---

RING_OFFSETS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def oracle_neighbor_rings(g):
    """The eight neighbor planes P2..P9 (clockwise from north) of a padded grid."""
    p = np.pad(g, 1).astype(np.uint8)
    return (p[:-2, 1:-1], p[:-2, 2:], p[1:-1, 2:], p[2:, 2:],
            p[2:, 1:-1], p[2:, :-2], p[1:-1, :-2], p[:-2, :-2])


def oracle_prune_redundant(g):
    """Row-major passes over every skeleton pixel: drop one whose >= 3
    neighbors form a single 8-connected piece."""
    h, w = g.shape
    changed = True
    while changed:
        changed = False
        for y, x in np.argwhere(g):
            nbrs = [(dy, dx) for dy, dx in RING_OFFSETS
                    if 0 <= y + dy < h and 0 <= x + dx < w and g[y + dy, x + dx]]
            if len(nbrs) < 3:
                continue
            comp = {n: i for i, n in enumerate(nbrs)}
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1:]:
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


def oracle_thin(grid):
    """Zhang-Suen with every sub-iteration evaluated over the whole frame."""
    g = np.asarray(grid).astype(bool).copy()
    while True:
        changed = False
        for step in (0, 1):
            p2, p3, p4, p5, p6, p7, p8, p9 = oracle_neighbor_rings(g)
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
            return oracle_prune_redundant(g)


def oracle_build_graph(pixels, link_radius):
    """A dict lookup per vertex and link offset."""
    coords = np.argwhere(np.asarray(pixels))
    vertices = [tuple(int(c) for c in row) for row in coords]
    index = {v: i for i, v in enumerate(vertices)}
    r = int(np.floor(link_radius))
    offsets = []
    for dy in range(0, r + 1):
        for dx in range(-r, r + 1):
            if dy == 0 and dx <= 0:
                continue
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


def oracle_close_and_fill(path, shape):
    """The closed curve filled by scipy's iterative-dilation hole fill."""
    if len(path) < contour.MIN_PATH_VERTICES:
        raise DegenerateContour("short path")
    h, w = shape
    curve = np.zeros(shape, dtype=bool)
    for p, q in zip(path, path[1:] + path[:1]):
        for y, x in bresenham(p, q):
            if not (0 <= y < h and 0 <= x < w):
                raise OpenRegion("outside")
            curve[y, x] = True
    mask = ndimage.binary_fill_holes(curve)
    if not (mask & ~curve).any():
        raise OpenRegion("no interior")
    return mask.astype(np.uint8)


def oracle_brn_segment(dmap, tau):
    band = binarize(dmap, tau)
    skel = oracle_thin(band)
    graph = oracle_build_graph(skel, contour.DEFAULT_LINK_RADIUS)
    if largest_component_fraction(graph) < 0.5:
        graph = oracle_build_graph(skel, contour.FALLBACK_LINK_RADIUS)
    return oracle_close_and_fill(mst_max_path(graph), dmap.shape)


def outcome(fn, *args):
    """fn's result, or the class of the boundseg error it raised."""
    try:
        return fn(*args)
    except BoundsegError as e:
        return type(e)


def assert_same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# --- binarize ---

def test_binarize_ground_truth_ring_tau_high():
    m = np.zeros((9, 9), np.uint8)
    m[2:7, 2:7] = 1
    dm = mask_to_distance_map(m)
    band = binarize(dm, 0.99)
    want = square_ring(9, 9, 2, 6)
    assert np.array_equal(band, want)


def test_binarize_tau_half_still_only_ring():
    # nearest off-ring pixel sits at distance >= 1, e^-1 < 0.5
    m = np.zeros((9, 9), np.uint8)
    m[2:7, 2:7] = 1
    band = binarize(mask_to_distance_map(m), 0.5)
    assert np.array_equal(band, square_ring(9, 9, 2, 6))


def test_binarize_rejects_bad_tau_and_empty():
    dm = np.full((4, 4), 0.3, dtype=np.float32)
    with pytest.raises(EmptyResult):
        binarize(dm, 0.6)
    with pytest.raises(EmptyResult):
        binarize(dm, 0.0)
    with pytest.raises(EmptyResult):
        binarize(dm, 1.0)


# --- thinning ---

def neighbor_counts(g):
    p = np.pad(g, 1).astype(np.int32)
    return sum(
        p[1 + dy : 1 + dy + g.shape[0], 1 + dx : 1 + dx + g.shape[1]]
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if (dy, dx) != (0, 0)
    )


def has_2x2_block(g):
    return bool((g[:-1, :-1] & g[1:, :-1] & g[:-1, 1:] & g[1:, 1:]).any())


def test_thin_keeps_one_pixel_ring():
    ring = square_ring(12, 12, 2, 9)
    assert np.array_equal(thin(ring), ring)


def test_thin_keeps_single_pixel():
    g = np.zeros((5, 5), dtype=bool)
    g[2, 2] = True
    assert np.array_equal(thin(g), g)


def test_thin_thick_ring_to_single_cycle():
    # Chebyshev annulus, 3 px thick
    ii, jj = np.mgrid[0:21, 0:21]
    cheb = np.maximum(np.abs(ii - 10), np.abs(jj - 10))
    g = (cheb >= 5) & (cheb <= 7)
    sk = thin(g)
    assert sk.any()
    assert not has_2x2_block(sk)  # width <= 1
    # every pixel keeps at least two neighbors (no endpoints, no islands);
    # right-angle corners legitimately show a third neighbor diagonally
    counts = neighbor_counts(sk)
    assert (counts[sk] >= 2).all()
    # single component ...
    graph = build_graph(sk, 1.5)
    assert largest_component_fraction(graph) == 1.0
    # ... that stays connected when any one pixel is removed: a cycle
    pixels = np.argwhere(sk)
    for y, x in pixels:
        probe = sk.copy()
        probe[y, x] = False
        assert largest_component_fraction(build_graph(probe, 1.5)) == 1.0


@st.composite
def grids(draw):
    """1x1 to 40x40 at any density, as drawn or opened or closed."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.random((h, w)) < density
    morph = draw(st.sampled_from([None, ndimage.binary_opening, ndimage.binary_closing]))
    return g if morph is None else morph(g)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(grids())
def test_thin_and_build_graph_match_the_oracles(grid):
    sk = thin(grid)
    assert sk.dtype == bool and np.array_equal(sk, oracle_thin(grid))
    for g in (grid, sk):
        for radius in (1, 1.5, 2.5, 3):
            got, want = build_graph(g, radius), oracle_build_graph(g, radius)
            assert got.vertices == want.vertices
            assert got.edges == want.edges


def thick_masks():
    n = 321
    ii, jj = np.mgrid[0:n, 0:n]
    r = np.hypot(ii - 160, jj - 160)
    corner = np.zeros((n, n), dtype=bool)
    corner[:90, :120] = True
    edge_bar = np.zeros((n, n), dtype=bool)
    edge_bar[40:280, -7:] = True
    return {
        "full-frame": np.ones((n, n), dtype=bool),
        "disk-140": r <= 140,
        "ring-40": (r <= 140) & (r > 100),
        "corner-block": corner,
        "edge-bar": edge_bar,
        "cut-disk": np.hypot(ii - 10, jj - 200) <= 60,
        "cut-ring": (np.hypot(ii - 300, jj - 150) <= 50) & (np.hypot(ii - 300, jj - 150) > 44),
    }


@pytest.mark.parametrize("name", sorted(thick_masks()))
def test_thin_matches_the_oracle_on_thick_and_border_masks(name):
    g = thick_masks()[name]
    sk = thin(g)
    assert np.array_equal(sk, oracle_thin(g))
    got, want = build_graph(sk, 1.5), oracle_build_graph(sk, 1.5)
    assert got.vertices == want.vertices and got.edges == want.edges


# --- graph construction ---

def test_build_graph_two_pixel_examples():
    g = np.zeros((4, 4), dtype=bool)
    g[1, 1] = g[1, 2] = True
    pg = build_graph(g, 1.5)
    assert pg.vertices == [(1, 1), (1, 2)]
    assert pg.edges == [(1.0, 0, 1)]

    g = np.zeros((4, 6), dtype=bool)
    g[1, 1] = g[1, 4] = True  # distance 3
    pg = build_graph(g, 1.5)
    assert pg.edges == []


def test_build_graph_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(20):
        grid = np.zeros((10, 10), dtype=bool)
        k = int(rng.integers(2, 11))
        flat = rng.choice(100, size=k, replace=False)
        grid.flat[flat] = True
        radius = float(rng.uniform(1.0, 3.5))
        pg = build_graph(grid, radius)

        verts = [tuple(v) for v in np.argwhere(grid)]
        want = set()
        for i, j in itertools.combinations(range(len(verts)), 2):
            d = np.hypot(verts[i][0] - verts[j][0], verts[i][1] - verts[j][1])
            if d <= radius:
                want.add((round(d, 9), i, j))
        got = {(round(w, 9), i, j) for w, i, j in pg.edges}
        assert got == want


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), -float("inf")])
def test_build_graph_rejects_a_non_finite_radius(radius):
    grid = np.zeros((4, 4), dtype=bool)
    grid[1, 1:3] = True
    with pytest.raises(DataError, match="link radius"):
        build_graph(grid, radius)


@pytest.mark.parametrize("shape", [(20, 20), (3, 40), (40, 3), (1, 1)])
def test_build_graph_radius_beyond_the_grid_links_every_pair(shape):
    grid = np.random.default_rng(11).random(shape) < 0.3
    grid.flat[[0, -1]] = True  # the two farthest pixels are on
    whole = oracle_build_graph(grid, float(np.hypot(*shape)))
    assert len(whole.edges) == len(whole.vertices) * (len(whole.vertices) - 1) // 2
    for radius in (max(shape) - 1, 3000.0, 1e300):
        pg = build_graph(grid, radius)
        want = oracle_build_graph(grid, min(radius, float(np.hypot(*shape))))
        assert pg.vertices == want.vertices and pg.edges == want.edges


def test_graph_invariants():
    grid = np.zeros((8, 8), dtype=bool)
    grid[2:5, 2:5] = True
    pg = build_graph(grid, 2.0)
    assert pg.vertices == sorted(pg.vertices)  # row-major
    for w, i, j in pg.edges:
        assert i < j and w > 0.0
    assert len({(i, j) for _, i, j in pg.edges}) == len(pg.edges)  # no dupes


# --- MST ---

def spanning_tree_min_weight(n, edges):
    """Exhaustive minimum over all spanning trees (n <= 12)."""
    best = None
    for combo in itertools.combinations(edges, n - 1):
        dsu = contour._DSU(n)
        ok = all(dsu.union(i, j) for _, i, j in combo)
        if ok:
            total = sum(w for w, _, _ in combo)
            best = total if best is None else min(best, total)
    return best


def test_mst_hand_example_cycle_with_heavy_edge():
    # 4-cycle, weights 1,1,1,5: MST drops the 5-edge
    g = PixelGraph(
        vertices=[(0, 0), (0, 1), (1, 1), (1, 0)],
        edges=[(1.0, 0, 1), (1.0, 1, 2), (1.0, 2, 3), (5.0, 0, 3)],
    )
    tree = minimum_spanning_tree(g)
    assert sorted(tree) == [(1.0, 0, 1), (1.0, 1, 2), (1.0, 2, 3)]


def test_mst_matches_exhaustive_enumeration():
    rng = np.random.default_rng(13)
    checked = 0
    attempts = 0
    while checked < 25 and attempts < 400:
        attempts += 1
        grid = np.zeros((6, 6), dtype=bool)
        k = int(rng.integers(4, 13))
        flat = rng.choice(36, size=k, replace=False)
        grid.flat[flat] = True
        pg = build_graph(grid, 2.5)
        if largest_component_fraction(pg) < 1.0 or len(pg.edges) > 24:
            continue
        tree = minimum_spanning_tree(pg)
        got = sum(w for w, _, _ in tree)
        want = spanning_tree_min_weight(len(pg.vertices), pg.edges)
        assert want is not None
        assert abs(got - want) < 1e-12
        checked += 1
    assert checked == 25


def test_mst_operates_on_largest_component():
    # two separate dominoes plus a triangle: the triangle wins by size
    g = PixelGraph(
        vertices=[(0, 0), (0, 1), (5, 5), (5, 6), (5, 7)],
        edges=[(1.0, 0, 1), (1.0, 2, 3), (1.0, 3, 4)],
    )
    tree = minimum_spanning_tree(g)
    assert sorted(tree) == [(1.0, 2, 3), (1.0, 3, 4)]


def test_mst_equal_size_components_tie_to_smallest_vertex():
    # {0, 5, 6} and {1, 2, 3} both have three vertices; the one holding
    # vertex 0 wins, whatever order the edges come in
    g = PixelGraph(
        vertices=[(0, k) for k in range(7)],
        edges=[(1.0, 5, 6), (1.0, 0, 5), (1.0, 1, 2), (1.0, 2, 3)],
    )
    assert [(i, j) for _, i, j in minimum_spanning_tree(g)] == [(0, 5), (5, 6)]
    assert largest_component_fraction(g) == 3 / 7


# --- max path ---

def tree_path_weights(n, tree_edges):
    """All-pairs max path weight inside a tree plus the hop count of every
    maximising path, by DFS from every vertex."""
    adj = {i: [] for i in range(n)}
    for w, i, j in tree_edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    best = 0.0
    best_hops = []
    for s in range(n):
        dist = {s: 0.0}
        hops = {s: 0}
        stack = [s]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + w
                    hops[v] = hops[u] + 1
                    stack.append(v)
        for v, d in dist.items():
            if d > best + 1e-12:
                best = d
                best_hops = [hops[v]]
            elif abs(d - best) <= 1e-12:
                best_hops.append(hops[v])
    return best, best_hops


def random_tree_graph(rng, n):
    """Random tree on n vertices, disguised as a PixelGraph."""
    vertices = [(0, i) for i in range(n)]
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        w = float(rng.uniform(0.5, 3.0))
        edges.append((w, min(i, j), max(i, j)))
    return PixelGraph(vertices=vertices, edges=edges)


def path_weight(graph, path):
    index = {v: i for i, v in enumerate(graph.vertices)}
    lookup = {(i, j): w for w, i, j in graph.edges}
    total = 0.0
    for p, q in zip(path, path[1:]):
        i, j = index[p], index[q]
        total += lookup[(min(i, j), max(i, j))]
    return total


def test_max_path_trivial_line():
    g = PixelGraph(vertices=[(0, i) for i in range(9)],
                   edges=[(1.0, i, i + 1) for i in range(8)])
    path = mst_max_path(g)
    assert path == [(0, i) for i in range(9)] or path == [(0, i) for i in range(8, -1, -1)]


def test_max_path_matches_all_pairs_oracle():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(8, 31))
        g = random_tree_graph(rng, n)
        want, want_hops = tree_path_weights(n, g.edges)
        try:
            path = mst_max_path(g)
        except DegenerateContour:
            # legitimate: every maximum-weight path is shorter than 8 vertices
            assert max(want_hops) + 1 < 8
            continue
        assert len(set(path)) == len(path)  # simple
        got = path_weight(g, path)
        assert abs(got - want) < 1e-9
        checked += 1
    assert checked >= 20  # most random trees exercise the success path


def test_max_path_rejects_short_paths():
    g = PixelGraph(vertices=[(0, 0), (0, 1), (0, 2)],
                   edges=[(1.0, 0, 1), (1.0, 1, 2)])
    with pytest.raises(DegenerateContour):
        mst_max_path(g)


def test_max_path_single_vertex():
    g = PixelGraph(vertices=[(3, 3)], edges=[])
    with pytest.raises(DegenerateContour):
        mst_max_path(g)


def test_empty_graph_raises():
    with pytest.raises(EmptyResult):
        minimum_spanning_tree(PixelGraph())


# --- close_and_fill ---

def test_bresenham_endpoints_and_connectivity():
    for p, q in [((0, 0), (5, 3)), ((4, 4), (0, 0)), ((2, 7), (2, 1)), ((1, 1), (1, 1))]:
        seg = bresenham(p, q)
        assert seg[0] == p and seg[-1] == q
        for a, b in zip(seg, seg[1:]):
            assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1


def test_close_and_fill_square_missing_edge():
    # three sides of a square, closure supplies the fourth
    side = [(2, x) for x in range(2, 9)]
    side += [(y, 8) for y in range(3, 9)]
    side += [(8, x) for x in range(7, 1, -1)]
    mask = close_and_fill(side, (11, 11))
    want = np.zeros((11, 11), np.uint8)
    want[2:9, 2:9] = 1
    assert np.array_equal(mask, want)


def test_close_and_fill_circle_dice():
    pts = []
    for t in np.linspace(0, 2 * np.pi, 120, endpoint=False):
        p = (int(round(16 + 10 * np.sin(t))), int(round(16 + 10 * np.cos(t))))
        if not pts or p != pts[-1]:
            pts.append(p)
    mask = close_and_fill(pts, (32, 32))
    # oracle: the rasterized disk (pixel centers within half a pixel of r)
    assert dice(mask, disk_mask(32, 32, 16, 16, 10.5)) >= 0.98


def test_close_and_fill_contains_curve_and_is_4_connected():
    pts = []
    for t in np.linspace(0, 2 * np.pi, 90, endpoint=False):
        p = (int(round(12 + 7 * np.sin(t))), int(round(12 + 9 * np.cos(t))))
        if not pts or p != pts[-1]:
            pts.append(p)
    mask = close_and_fill(pts, (25, 25))
    for p in pts:
        assert mask[p] == 1
    # 4-connectivity: flood from one foreground pixel reaches all
    from collections import deque
    seen = np.zeros_like(mask, dtype=bool)
    start = tuple(np.argwhere(mask)[0])
    seen[start] = True
    todo = deque([start])
    while todo:
        y, x = todo.popleft()
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= ny < 25 and 0 <= nx < 25 and mask[ny, nx] and not seen[ny, nx]:
                seen[ny, nx] = True
                todo.append((ny, nx))
    assert (seen == mask.astype(bool)).all()


def test_close_and_fill_out_of_frame_raises():
    path = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (9, 9)]
    with pytest.raises(OpenRegion):
        close_and_fill(path, (8, 8))


def test_close_and_fill_straight_line_has_no_interior():
    path = [(3, x) for x in range(2, 12)]
    with pytest.raises(OpenRegion):
        close_and_fill(path, (8, 16))


def test_close_and_fill_short_path_raises():
    with pytest.raises(DegenerateContour):
        close_and_fill([(0, 0), (0, 1)], (4, 4))


def bfs_fill(path, shape):
    """Oracle: rasterize the closed polyline, flood the exterior 4-connected
    from every background border pixel, keep the rest.  Returns the uint8
    mask, or the error class close_and_fill must raise."""
    h, w = shape
    curve = np.zeros(shape, dtype=bool)
    for p, q in zip(path, path[1:] + path[:1]):
        for y, x in bresenham(p, q):
            if not (0 <= y < h and 0 <= x < w):
                return OpenRegion
            curve[y, x] = True
    exterior = np.zeros(shape, dtype=bool)
    todo = deque((y, x) for y in range(h) for x in range(w)
                 if (y in (0, h - 1) or x in (0, w - 1)) and not curve[y, x])
    for y, x in todo:
        exterior[y, x] = True
    while todo:
        y, x = todo.popleft()
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= ny < h and 0 <= nx < w and not (curve[ny, nx] or exterior[ny, nx]):
                exterior[ny, nx] = True
                todo.append((ny, nx))
    if not (~exterior & ~curve).any():
        return OpenRegion
    return (~exterior).astype(np.uint8)


def test_close_and_fill_matches_bfs_oracle():
    rng = np.random.default_rng(20190107)
    outcomes = {"mask": 0, "error": 0}
    for _ in range(400):
        h, w = (int(v) for v in rng.integers(5, 33, size=2))
        n = int(rng.integers(8, 16))
        # in a quarter of the cases vertices may fall just outside the frame
        m = 1 if rng.random() < 0.25 else 0
        path = [(int(rng.integers(-m, h + m)), int(rng.integers(-m, w + m)))
                for _ in range(n)]
        want = bfs_fill(path, (h, w))
        if isinstance(want, np.ndarray):
            got = close_and_fill(path, (h, w))
            assert got.dtype == np.uint8
            assert np.array_equal(got, want), path
            outcomes["mask"] += 1
        else:
            with pytest.raises(want):
                close_and_fill(path, (h, w))
            outcomes["error"] += 1
    # both branches are exercised
    assert min(outcomes.values()) > 40, outcomes


# --- full chain ---

def test_brn_roundtrip_disk():
    m = disk_mask(48, 48, 24, 24, 13)
    got = brn_segment(mask_to_distance_map(m))
    assert dice(got, m) >= 0.98


def test_brn_roundtrip_square():
    m = np.zeros((32, 32), np.uint8)
    m[6:25, 8:27] = 1
    got = brn_segment(mask_to_distance_map(m))
    assert dice(got, m) >= 0.98


def test_brn_roundtrip_rotated_ellipse():
    ii, jj = np.mgrid[0:48, 0:48]
    th = 0.5
    u = (ii - 24) * np.cos(th) + (jj - 24) * np.sin(th)
    v = -(ii - 24) * np.sin(th) + (jj - 24) * np.cos(th)
    m = ((u / 15.0) ** 2 + (v / 9.0) ** 2 <= 1.0).astype(np.uint8)
    got = brn_segment(mask_to_distance_map(m))
    assert dice(got, m) >= 0.98


def test_brn_uniform_map_raises():
    with pytest.raises(EmptyResult):
        brn_segment(np.full((16, 16), 0.2, dtype=np.float32))


def test_brn_two_rings_keeps_larger():
    dm = np.zeros((40, 40), dtype=np.float32)
    big = square_ring(40, 40, 2, 21)      # 20x20 ring
    small = square_ring(40, 40, 28, 36)   # 9x9 ring
    dm[big] = 1.0
    dm[small] = 1.0
    got = brn_segment(dm)
    want = np.zeros((40, 40), np.uint8)
    want[2:22, 2:22] = 1
    assert dice(got, want) >= 0.98
    assert got[28:37, 28:37].sum() == 0  # smaller ring dropped


def test_brn_bridges_small_gaps_via_fallback():
    # ring cut into three arcs by 2-px gaps: the largest covers < 50% of
    # the skeleton at radius 1.5, so the 3.0 fallback pass must bridge it
    ring = square_ring(24, 24, 4, 19)
    dm = np.zeros((24, 24), dtype=np.float32)
    dm[ring] = 1.0
    dm[4, 10:12] = 0.0      # top
    dm[12:14, 19] = 0.0     # right
    dm[19, 8:10] = 0.0      # bottom
    got = brn_segment(dm)
    want = np.zeros((24, 24), np.uint8)
    want[4:20, 4:20] = 1
    assert dice(got, want) >= 0.95


@pytest.fixture(scope="module")
def phantom_maps():
    """Ground-truth maps of eight 321² phantoms."""
    return [mask_to_distance_map(generate_sample((321, 321), 2019, k)[1])
            for k in range(8)]


@pytest.mark.parametrize("tau", [0.2, 0.6])
def test_brn_segment_matches_the_oracle_chain_on_phantoms(phantom_maps, tau):
    for dm in phantom_maps:
        got = outcome(brn_segment, dm, tau)
        assert isinstance(got, np.ndarray)
        assert_same_outcome(got, oracle_brn_segment(dm, tau))


def test_brn_segment_matches_the_oracle_chain_on_a_fragmented_ring():
    # three arcs: the fallback link radius joins them
    dm = np.zeros((24, 24), dtype=np.float32)
    dm[square_ring(24, 24, 4, 19)] = 1.0
    dm[4, 10:12] = dm[12:14, 19] = dm[19, 8:10] = 0.0
    assert_same_outcome(outcome(brn_segment, dm, 0.6), oracle_brn_segment(dm, 0.6))


def test_brn_deterministic():
    m = disk_mask(32, 32, 16, 15, 9)
    dm = mask_to_distance_map(m)
    a = brn_segment(dm)
    b = brn_segment(dm)
    assert np.array_equal(a, b)
