"""Fractal polyline curves: substitution generators, dimension estimates,
and the geometric spin integral.

A generator is a polyline from (0,0,0) to (1,0,0) whose segments all have
the same length 1/divisions.  Iterating substitutes a rotated, scaled copy
of the generator into every segment, giving a self-similar curve with
similarity dimension log(n_segments)/log(divisions).

Dimensions are measured by divider walks: chords of one ruler length
laid along the curve from end to end.  At a construction scale of the
curve most chords run exactly from vertex to vertex, and divider_walk
then follows chains of such chords that it builds for every vertex at
once in numpy.  Each link repeats the scalar walk's float operations in
their order, so every walk length is bitwise the one the plain walk gives.

The spin of a curve is computed in the frame of its own span axis: scale
the span to one de Broglie wavelength 2 pi hbar / (m v), traverse it in
one period T = lambda/(v) times period_factor, and integrate

    sigma = (m / T) * integral r^2 dphi

over the axis-relative cylindrical coordinates.  Both m and v cancel, so
sigma is a pure multiple of hbar set by the curve's shape.  Its sign is
the handedness of the winding.

The reference value sigma = 0.42 hbar quoted for a particular hyperhelix
is NOT reproduced here: the geometry behind that number was never
published, so no generator in this module is calibrated against it.  See
flag_unreproduced_reference().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryInvalid, InsufficientData, finite, whole

_TOL = 1e-9
_DEFAULT_RULERS = 10  # rulers in the default_rulers ladder


def similarity_dimension(n_segments: int, divisions: int) -> float:
    """log N / log(1/r) for N equal segments of length 1/divisions.
    Raises GeometryInvalid unless n_segments >= 1 and divisions >= 2."""
    if not (n_segments >= 1 and divisions >= 2):
        raise GeometryInvalid(
            f"need n_segments >= 1 and divisions >= 2, got {n_segments!r} "
            f"and {divisions!r}")
    return math.log(n_segments) / math.log(divisions)


def _vertex_array(vertices) -> np.ndarray:
    """vertices as an (n, 3) float array; raises GeometryInvalid unless
    n >= 2 and every entry is a finite number (never a string or None,
    nor ragged nesting).  The one check of every function taking a curve."""
    try:
        verts = np.asarray(vertices)
    except ValueError:  # ragged nesting
        verts = np.asarray(None)
    if verts.dtype.kind not in "biuf" or verts.ndim != 2 \
            or verts.shape[0] < 2 or verts.shape[1] != 3:
        raise GeometryInvalid("need an (n, 3) vertex array with n >= 2")
    if not np.isfinite(verts).all():
        raise GeometryInvalid("need finite vertex coordinates")
    return verts.astype(float, copy=False)


@dataclass(frozen=True)
class GeneratorSpec:
    vertices: np.ndarray
    divisions: int

    def __post_init__(self):
        v = _vertex_array(self.vertices)
        object.__setattr__(self, "vertices", v)
        whole("key divisions", self.divisions, 2, error=GeometryInvalid)
        if np.linalg.norm(v[0]) > _TOL:
            raise GeometryInvalid("generator must start at the origin")
        if np.linalg.norm(v[-1] - [1.0, 0.0, 0.0]) > _TOL:
            raise GeometryInvalid("generator must end at (1, 0, 0)")
        segs = np.linalg.norm(np.diff(v, axis=0), axis=1)
        target = 1.0 / self.divisions
        if np.max(np.abs(segs - target)) > _TOL:
            raise GeometryInvalid(
                f"segment lengths deviate from 1/{self.divisions} "
                f"by up to {np.max(np.abs(segs - target)):.2e}")

    @property
    def n_segments(self) -> int:
        return len(self.vertices) - 1

    def dimension(self) -> float:
        return similarity_dimension(self.n_segments, self.divisions)


def helical_generator(winding: int = 4) -> GeneratorSpec:
    """Nine-segment helical generator, one of a four-member family.

    Vertices advance 1/9 axially per step while circling a transverse
    circle `winding` times in nine steps; the circle radius
    sqrt(2)/(9 sin(pi w / 9)) is the unique value making every segment
    exactly 1/3 of the span, so the curve has similarity dimension
    log 9 / log 3 = 2 for every winding number.

    The default winding 4 has the smallest transverse radius of the
    family.  Lower windings bulge so far from the span axis that divider
    walks cross coarse-ruler spheres early, which biases the measured
    dimension of finite iterates well below 2; w = 4 measures 2.00 at
    level 5 where w = 1 reads 1.80.
    """
    if whole("key winding", winding, 1, error=GeometryInvalid) > 4:
        raise GeometryInvalid(f"key winding: need at most 4, got {winding}")
    alpha = 2.0 * math.pi * winding / 9.0
    radius = math.sqrt(2.0) / (9.0 * math.sin(math.pi * winding / 9.0))
    verts = np.array([[j / 9.0,
                       radius * (math.cos(j * alpha) - 1.0),
                       radius * math.sin(j * alpha)]
                      for j in range(10)])
    return GeneratorSpec(verts, divisions=3)


def koch_generator() -> GeneratorSpec:
    """Classic four-segment triadic generator, dimension log 4 / log 3."""
    h = 0.5 / math.sqrt(3.0)
    verts = np.array([[0.0, 0.0, 0.0],
                      [1.0 / 3.0, 0.0, 0.0],
                      [0.5, h, 0.0],
                      [2.0 / 3.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0]])
    return GeneratorSpec(verts, divisions=3)


def line_generator(divisions: int = 3) -> GeneratorSpec:
    whole("key divisions", divisions, 2, error=GeometryInvalid)
    verts = np.zeros((divisions + 1, 3))
    verts[:, 0] = np.arange(divisions + 1) / divisions
    return GeneratorSpec(verts, divisions=divisions)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each the square root of a dot
    product as np.linalg.norm forms it for a single vector, so iterate
    gives the vertices that a segment-by-segment loop would."""
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


def _rotation_to(direction: np.ndarray) -> np.ndarray:
    """Minimal rotations taking x-hat onto unit vectors.

    direction has shape (..., 3); the result has shape (..., 3, 3), one
    rotation per direction.
    """
    d = np.asarray(direction, dtype=float)
    c = d[..., 0]
    aligned = c > 1.0 - 1e-14
    opposed = c < -1.0 + 1e-14
    axis = np.cross([1.0, 0.0, 0.0], d)
    s = _row_norms(axis)
    axis = axis / np.where(aligned | opposed, 1.0, s)[..., None]
    zero = np.zeros_like(c)
    k = np.stack([np.stack([zero, -axis[..., 2], axis[..., 1]], axis=-1),
                  np.stack([axis[..., 2], zero, -axis[..., 0]], axis=-1),
                  np.stack([-axis[..., 1], axis[..., 0], zero], axis=-1)],
                 axis=-2)
    rot = (np.eye(3) + s[..., None, None] * k
           + (1.0 - c)[..., None, None] * (k @ k))
    rot[aligned] = np.eye(3)
    rot[opposed] = np.diag([-1.0, 1.0, -1.0])  # pi about y-hat
    return rot


_MAX_VERTICES = 10_000_000


def iterate(gen: GeneratorSpec, level: int) -> np.ndarray:
    """Substitute the generator into itself `level` times.

    Returns the vertex array of the resulting polyline, starting from the
    unit segment, so level 0 is [(0,0,0), (1,0,0)] and level L has
    n_segments**L segments.  Each substitution maps the generator onto a
    segment by the minimal rotation of the x axis onto the segment
    direction, then scales by the segment length.

    Raises GeometryInvalid, before allocating anything, when the curve
    would have more than _MAX_VERTICES = 10**7 vertices (240 MB); level 7
    of the nine-segment helix has 4.8 million, level 8 has 43 million,
    and when level is not a whole number >= 0.
    """
    whole("key level", level, 0, error=GeometryInvalid)
    # n_segments >= 2, so an exponent capped at 64 already exceeds the
    # limit and a huge level costs no huge power
    if gen.n_segments ** min(level, 64) + 1 > _MAX_VERTICES:
        raise GeometryInvalid(
            f"level {level} of a {gen.n_segments}-segment generator has "
            f"more than {_MAX_VERTICES} vertices")
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    inner = gen.vertices[1:-1]
    for _ in range(level):
        a = verts[:-1]
        d = verts[1:] - a
        length = _row_norms(d)
        rot = _rotation_to(d / length[:, None])
        pieces = np.empty((len(a), len(inner) + 1, 3))
        pieces[:, :-1] = a[:, None] + length[:, None, None] * (
            inner @ rot.transpose(0, 2, 1))
        pieces[:, -1] = verts[1:]
        verts = np.concatenate([verts[:1], pieces.reshape(-1, 3)])
    return verts


_SCAN_CHUNK = 256
# longest scalar probe: a chunk scan costs about as much as testing a few
# dozen segments in floats (level-5 helix rulers walk fastest at 32 to 96)
_PROBE_MAX = 64
_T_EPS = 1e-9  # crossings that land on a vertex round to t = 1 +- ulp
# a segment whose two ends both lie at squared distance below
# eps^2 (1 - _MARGIN) from the anchor holds no crossing (divider_walk)
_MARGIN = 1e-6
# divider_walk builds a chain table when at least this share of segments
# can take a chord from one vertex exactly onto the next (about 0.4 to 0.7
# at the finest construction ruler of iterate's curves, 0 at the others)
_CHAIN_SHARE = 0.25
_CHAIN_POOL = 4096  # open chains advanced together; 32 kB per array
_CHAIN_ROUNDS = 32  # a chain still open after this many rounds stays open


def _dot3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row dot products of (n, 3) arrays, summed as (u0 v0 + u2 v2) + u1 v1,
    the order numpy's einsum sums these rows in (numpy 2.4, x86-64).

    divider_walk takes its squared segment lengths from here and its
    scalar root test sums in the same order, so its walk lengths match
    those of the einsum-based walk of earlier versions.  _first_crossing's
    distances sum in this order too, so the scan rules out exactly the
    segments that the probe would.
    """
    return (u[:, 0] * v[:, 0] + u[:, 2] * v[:, 2]) + u[:, 1] * v[:, 1]


def _first_crossing(verts, k, anchor, ball2):
    """First segment from k on that may hold the chord's end, or None.

    A segment is ruled out when both its vertices lie at squared distance
    below ball2 from anchor, so the scan looks for the first vertex from
    verts[k] on that does not, and returns the segment ending there
    (segment k itself when that vertex is verts[k]).  It scans in array
    operations, _SCAN_CHUNK vertices at first and twice as many on each
    further pass, and takes no roots: divider_walk tests the segment.
    """
    i, size = k, _SCAN_CHUNK
    while i < len(verts):
        w = verts[i:i + size] - anchor
        far = np.flatnonzero(_dot3(w, w) >= ball2)
        if far.size:
            return max(i + int(far[0]) - 1, k)
        i, size = i + size, 2 * size
    return None


def _chain_table(verts, dirs, seg2, eps):
    """For each vertex j, the chords a divider walk standing exactly on
    verts[j] takes until it next lands exactly on a vertex: int arrays (to,
    chords) with that vertex in to[j] (n for the curve's end) and the
    number of chords in chords[j], or to[j] = -1 for a chain left open.

    The chains advance in rounds of _chain_link, which takes each chain's
    next segment test bitwise as divider_walk's scalar loop takes it.  A
    chain stays open when its search runs off the curve's end or after
    _CHAIN_ROUNDS rounds.  At most _CHAIN_POOL chains are open at once;
    origins join in order as others close.
    """
    n = len(dirs)
    to = np.full(n, -1, dtype=np.int32)
    chords = np.zeros(n, dtype=np.int32)
    # per open chain: origin, segment, chords so far, rounds, the anchor
    # and its t on the segment
    state = (np.empty(0, dtype=int),) * 4 + (np.empty(0),) * 4
    fed = 0
    while True:
        if len(state[0]) <= _CHAIN_POOL // 2 and fed < n:
            new = np.arange(fed, min(fed + _CHAIN_POOL - len(state[0]), n))
            fed += len(new)
            zero = np.zeros(len(new), dtype=int)
            fresh = (new, new, zero, zero, *verts[new].T, np.zeros(len(new)))
            state = tuple(np.concatenate(p) for p in zip(state, fresh))
        if not len(state[0]):
            return to, chords
        origin, vertex, count, state = _chain_link(verts, dirs, seg2, eps,
                                                   state)
        to[origin] = vertex
        chords[origin] = count


def _chain_link(verts, dirs, seg2, eps, state):
    """One round of _chain_table: every open chain tests its segment k with
    the scalar root test's operations, in its order, on float64 arrays, so
    each root, anchor and landing is bitwise divider_walk's.

    Returns the origins of the chains whose chord landed exactly on a
    vertex, those vertices and the chains' chord counts, and the state of
    the chains still open.  Each round's temporaries are freed before the
    next round allocates its own, which keeps the walk's peak resident
    memory near the scalar walk's.
    """
    n = len(dirs)
    eps2 = eps * eps
    ball2 = eps2 * (1.0 - _MARGIN)
    hi = 1.0 + _T_EPS
    j, k, done, rounds, a0, a1, a2, lo = state
    k1 = k + 1
    s0, s1, s2 = verts.take(k, axis=0).T
    d0, d1, d2 = dirs.take(k, axis=0).T
    e0, e1, e2 = verts.take(k1, axis=0).T
    aa = seg2.take(k)
    w0, w1, w2 = s0 - a0, s1 - a1, s2 - a2
    ww = (w0 * w0 + w2 * w2) + w1 * w1
    f0, f1, f2 = e0 - a0, e1 - a1, e2 - a2
    ff = (f0 * f0 + f2 * f2) + f1 * f1
    bb = 2.0 * ((w0 * d0 + w2 * d2) + w1 * d1)
    disc = bb * bb - 4.0 * aa * (ww - eps2)
    ok = ((ww >= ball2) | (ff >= ball2)) & (disc >= 0.0) & (aa > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(disc)
        near = (-bb - root) / (2 * aa)
        far = (-bb + root) / (2 * aa)
    take_near = ok & (lo < near) & (near <= hi)
    hit = take_near | (ok & (lo < far) & (far <= hi))
    t = np.where(take_near, near, far)
    land = hit & (t >= 1.0)
    move = hit & ~land  # the chord ends inside segment k
    k = np.where(hit, k, k1)
    rounds = rounds + 1
    keep = np.flatnonzero(~land & (k < n) & (rounds < _CHAIN_ROUNDS))
    return j[land], k1[land], done[land] + 1, tuple(x.take(keep) for x in (
        j, k, done + move, rounds, np.where(move, s0 + t * d0, a0),
        np.where(move, s1 + t * d1, a1), np.where(move, s2 + t * d2, a2),
        np.where(hit, t, 0.0)))


def divider_walk(vertices: np.ndarray, eps: float) -> float:
    """Ruler length estimate: walk the polyline in chords of length eps
    (first-crossing rule) and return steps * eps plus the leftover chord.

    A chord ends at the first root t of |s + t d - anchor|^2 = eps^2 along
    the segments s + t d from the anchor on, above the anchor's own t in
    its segment (above 0 in later ones) and at most 1 + _T_EPS: a crossing
    sitting exactly on a shared vertex otherwise rounds out of both
    adjacent segments (t = 1 + ulp in one, t = 0 in the next) and the walk
    loses it.  A root t >= 1 lands the chord exactly on the segment's end
    vertex.

    The walk takes that root only on segments that can hold it.  The
    ruler's ball is convex, so a segment whose two vertices lie at squared
    distance below eps^2 (1 - _MARGIN) from the anchor lies inside it and
    is shorter than 2 eps.  Both roots of its quadratic then lie at least
    _MARGIN eps / 2 = 5e-7 eps beyond its ends, at least 2.5e-7 outside
    [0, 1] in t, and rounding moves a root by about 1e-13 eps (the two
    roots are at least 2 eps sqrt(_MARGIN) apart, far from a double
    root).  The root test, which accepts t up to 1 + _T_EPS = 1 + 1e-9,
    never accepts one there, so skipping such segments leaves every walk
    length bitwise unchanged.  The anchor's own segment is judged by its
    two vertices too, not by the anchor: a segment much longer than eps
    can end just inside the margin with its root less than _T_EPS past
    that vertex, where the test lands the chord.

    A chord usually ends within a few segments, and checking those in
    Python floats costs less than the array operations of one scan.  So
    each chord first probes twice as many segments as the previous chord
    spanned, and hands the rest of the search to _first_crossing when the
    crossing lies beyond the probe; a probe longer than _PROBE_MAX
    segments is skipped, the scan being the cheaper test there.  Either
    way one scalar root test runs on each segment not ruled out.  Segment
    data is read as Python floats one chunk at a time.

    Where the ruler is a construction scale of the curve, most chords
    start and end exactly on vertices, and the Python loop above is the
    walk's whole cost.  A chord from a vertex lands exactly on the next
    one only on a segment with |d|^2 in [eps^2 / (1 + _T_EPS)^2, eps^2];
    when at least _CHAIN_SHARE of the segments have that length, the walk
    first builds _chain_table in numpy: for every vertex, where the chords
    from it next land exactly on a vertex and how many they are.  Each
    table entry repeats the scalar test's operations in the same order,
    and a chord's course depends only on where it starts, so wherever the
    walk lands exactly on a vertex with a closed chain it adds that
    chain's chords and resumes at the chain's end with the walk it would
    have taken.  Open chains, and walks below the share, run the loop.
    Raises GeometryInvalid for a ruler that is not a finite number above 0
    or vertices that are not an (n, 3) array of finite numbers, n >= 2.
    """
    eps = finite("key eps", eps, positive=True, error=GeometryInvalid)
    verts = _vertex_array(vertices)
    dirs = verts[1:] - verts[:-1]
    n = len(dirs)
    eps2 = eps * eps
    ball2 = eps2 * (1.0 - _MARGIN)  # the ball less its margin, squared
    hi = 1.0 + _T_EPS
    seg2 = _dot3(dirs, dirs)  # squared segment lengths
    to = chords = None
    if np.count_nonzero((seg2 >= eps2 / (hi * hi)) & (seg2 <= eps2)) \
            >= _CHAIN_SHARE * n:
        # memoryviews read table entries as Python ints without a list
        to, chords = map(memoryview, _chain_table(verts, dirs, seg2, eps))
    page, base, end = [], 0, 0  # segments base .. end-1 as float lists

    def load(k):
        # the walk only moves forward, so a page starting at k serves the
        # segments that follow; a row is a segment's start, difference,
        # squared length and end
        j = min(k + _SCAN_CHUNK, n)
        return np.column_stack((verts[k:j], dirs[k:j], seg2[k:j],
                                verts[k + 1:j + 1])).tolist(), k, j

    idx, probe, steps = 0, 0, 0
    a0, a1, a2 = verts[0].tolist()
    while True:
        # the walk stands exactly on vertex idx: at the start, or after a
        # chord that landed there
        if to is not None and to[idx] >= 0:
            while idx < n and to[idx] >= 0:
                steps += chords[idx]
                idx = to[idx]
            if idx == n:
                return steps * eps  # no leftover chord
            a0, a1, a2 = verts[idx].tolist()
        t = 0.0
        while True:  # chords until one lands exactly on a vertex
            k, lo, stop = idx, t, min(idx + probe, n)
            ww = None  # squared distance of segment k's start from anchor
            while True:
                if k == stop:
                    hit = None if k == n else _first_crossing(
                        verts, k, np.array((a0, a1, a2)), ball2)
                    if hit is None:
                        return steps * eps + float(np.linalg.norm(
                            verts[-1] - np.array((a0, a1, a2))))
                    if hit > k:
                        k, lo, ww = hit, 0.0, None
                    stop = k + 1
                if k >= end:
                    page, base, end = load(k)
                s0, s1, s2, d0, d1, d2, aa, e0, e1, e2 = page[k - base]
                if ww is None:
                    w0, w1, w2 = s0 - a0, s1 - a1, s2 - a2
                    ww = (w0 * w0 + w2 * w2) + w1 * w1
                f0, f1, f2 = e0 - a0, e1 - a1, e2 - a2
                ff = (f0 * f0 + f2 * f2) + f1 * f1
                if ww >= ball2 or ff >= ball2:
                    bb = 2.0 * ((w0 * d0 + w2 * d2) + w1 * d1)
                    disc = bb * bb - 4.0 * aa * (ww - eps2)
                    if disc >= 0.0 and aa > 0.0:
                        root = math.sqrt(disc)
                        t = (-bb - root) / (2 * aa)
                        if lo < t <= hi:
                            break
                        t = (-bb + root) / (2 * aa)
                        if lo < t <= hi:
                            break
                w0, w1, w2, ww = f0, f1, f2, ff
                k += 1
                lo = 0.0
            probe = 2 * (k - idx + 1)
            if probe > _PROBE_MAX:
                probe = 0
            steps += 1
            if t >= 1.0:
                break
            idx = k
            a0, a1, a2 = s0 + t * d0, s1 + t * d1, s2 + t * d2
        # t overshoots 1 by at most _T_EPS; land exactly on the vertex so
        # the next step starts clean
        idx = k + 1
        if idx == n:
            return steps * eps  # no leftover chord
        a0, a1, a2 = e0, e1, e2


@dataclass
class DimensionEstimate:
    dimension: float
    rulers: np.ndarray
    lengths: np.ndarray


def default_rulers(vertices: np.ndarray) -> np.ndarray:
    """Geometric ladder of ten rulers from the span chord down to twice the
    shortest segment (below that a polyline just reads as dimension 1).

    For generic curves only.  Divider lengths of self-similar curves
    oscillate log-periodically, and an arbitrary ladder samples the
    oscillation at drifting phase; prefer construction_rulers there.
    Raises GeometryInvalid when either end of the ladder is 0: a closed
    curve, or a segment of length 0; and for vertices that are not an
    (n, 3) array of finite numbers, n >= 2.
    """
    verts = _vertex_array(vertices)
    span = float(np.linalg.norm(verts[-1] - verts[0]))
    seg_min = float(np.min(np.linalg.norm(np.diff(verts, axis=0), axis=1)))
    if not (span > 0.0 and seg_min > 0.0):
        raise GeometryInvalid(
            f"no default ruler ladder from span {span!r} down to twice the "
            f"shortest segment {seg_min!r}; pass rulers")
    return np.geomspace(span, 2.0 * seg_min, _DEFAULT_RULERS)


def construction_rulers(divisions: int, level: int) -> np.ndarray:
    """Phase-locked ladder (1/divisions)**j, j = 0..level, for curves
    built by iterate: sampling at the construction ratio holds the
    lacunarity oscillation at fixed phase so it cancels from the slope;
    divisions >= 2 and level >= 0 are whole numbers, or GeometryInvalid."""
    divisions = whole("key divisions", divisions, 2, error=GeometryInvalid)
    return (1.0 / divisions) ** np.arange(
        whole("key level", level, 0, error=GeometryInvalid) + 1)


def measured_dimension(vertices: np.ndarray, rulers=None,
                       min_decades: float = 2.0) -> DimensionEstimate:
    """Divider (ruler) dimension: slope of log L(eps) against log(1/eps),
    plus one, with each L(eps) from one forward divider walk.

    Raises InsufficientData, before any walk, when fewer than two rulers
    are distinct or the rulers span fewer than min_decades decades (or
    min_decades is NaN); self-similar curves below level 5
    cannot honestly reach two decades, so convergence studies over levels
    pass a lower min_decades explicitly.  Raises GeometryInvalid for
    vertices that are not an (n, 3) array of finite numbers, n >= 2,
    rulers that are not a flat list of at least one, a ruler that is not a
    finite number above 0, or a walk of length 0.
    """
    verts = _vertex_array(vertices)
    if rulers is None:
        rulers = default_rulers(verts)
    try:
        flat = np.ndim(rulers) == 1 and np.size(rulers) > 0
    except ValueError:  # ragged nesting
        flat = False
    if not flat:
        raise GeometryInvalid(
            f"key rulers: need a flat list of at least one ruler, got "
            f"{rulers!r}")
    rulers = finite("key rulers", rulers, np.size(rulers), positive=True,
                    error=GeometryInvalid)
    if rulers.min() == rulers.max():
        raise InsufficientData(
            f"need at least two distinct rulers for a slope, got only "
            f"{float(rulers[0])!r}")
    span = math.log10(rulers.max() / rulers.min())
    if not span >= min_decades:
        raise InsufficientData(
            f"ruler span {span:.2f} decades < {min_decades:.2f}")
    lengths = np.array([divider_walk(verts, eps) for eps in rulers])
    if not np.all(lengths > 0.0):
        raise GeometryInvalid("a divider walk has length 0; no dimension")
    slope, _ = np.polyfit(np.log(1.0 / rulers), np.log(lengths), 1)
    return DimensionEstimate(1.0 + float(slope), rulers, lengths)


def _axis_frame(vertices: np.ndarray):
    """(span, axial, t1, t2, u): the endpoint distance, each vertex's axial
    and two transverse coordinates relative to the first vertex, and the
    span unit vector u.  Raises GeometryInvalid unless vertices is an
    (n, 3) array of finite numbers with n >= 2 and endpoints further apart
    than 1e-12 times the largest distance of a vertex from the first, so
    the test does not depend on the curve's scale."""
    verts = _vertex_array(vertices)
    rel = verts - verts[0]
    span_vec = rel[-1]
    span = float(np.linalg.norm(span_vec))
    if not span > 1e-12 * float(np.max(_row_norms(rel))):
        raise GeometryInvalid("curve endpoints coincide; span axis undefined")
    u = span_vec / span
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(u)))] = 1.0
    n1 = seed - (seed @ u) * u
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(u, n1)
    return span, rel @ u, rel @ n1, rel @ n2, u


def _unwrapped_azimuth(t1, t2, r2, span):
    phi = np.arctan2(t2, t1)
    tiny = (1e-12 * span) ** 2
    on_axis = r2 <= tiny
    if on_axis.all():
        return np.zeros_like(phi)
    # carry the azimuth of the last off-axis point through axis hits, so
    # zero-radius endpoints cannot inject fake winding
    idx = np.arange(len(phi))
    last = np.maximum.accumulate(np.where(~on_axis, idx, -1))
    last = np.where(last < 0, np.flatnonzero(~on_axis)[0], last)
    return np.unwrap(phi[last])


def spin_kernel(vertices: np.ndarray) -> float:
    """The dimensionless integral r^2 dphi / span^2 in the axis frame."""
    span, _, t1, t2, _ = _axis_frame(vertices)
    r2 = t1 * t1 + t2 * t2
    phi = _unwrapped_azimuth(t1, t2, r2, span)
    dphi = np.diff(phi)
    r2_mid = 0.5 * (r2[:-1] + r2[1:])
    return float(np.sum(r2_mid * dphi)) / span ** 2


def curve_spin(vertices: np.ndarray, m: float, v: float, *,
               hbar: float = 1.0, period_factor: float = 1.0) -> float:
    """Spin integral sigma = (m/T) * integral r^2 dphi with the span
    scaled to one de Broglie wavelength and T = (lambda/v) period_factor.

    With lambda = 2 pi hbar / (m v) the mass and speed cancel, leaving
    sigma = 2 pi hbar * spin_kernel / period_factor, which is what this
    computes; m and v are checked but otherwise unused.
    """
    for key, value in (("m", m), ("v", v), ("hbar", hbar),
                       ("period_factor", period_factor)):
        finite(f"key {key}", value, positive=True, error=GeometryInvalid)
    return 2.0 * math.pi * hbar * spin_kernel(vertices) / period_factor


def shrink_transverse(vertices: np.ndarray, q: float) -> np.ndarray:
    """Contract the curve towards its span axis by 1/q, azimuths intact."""
    finite("key q", q, positive=True, error=GeometryInvalid)
    _, axial, _, _, u = _axis_frame(vertices)
    verts = np.asarray(vertices, dtype=float)
    transverse = (verts - verts[0]) - np.outer(axial, u)
    return verts[0] + np.outer(axial, u) + transverse / q


def scaling_factor(q: float, d_f: float) -> float:
    """Spin rescaling q**(d_f - 2) under a transverse shrink by 1/q with
    the traversal period rescaled by q**(-d_f)."""
    for key, value in (("q", q), ("d_f", d_f)):
        finite(f"key {key}", value, positive=True, error=GeometryInvalid)
    return q ** (d_f - 2.0)


def flag_unreproduced_reference() -> str:
    return ("sigma = 0.42 hbar is quoted for an unpublished hyperhelix "
            "geometry and is not reproduced by any generator here; treat "
            "it as an external reference value only.")
