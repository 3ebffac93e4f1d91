"""Fractal polyline curves: substitution generators, dimension estimates,
and the geometric spin integral.

A generator is a polyline from (0,0,0) to (1,0,0) whose segments all have
the same length 1/divisions.  Iterating substitutes a rotated, scaled copy
of the generator into every segment, giving a self-similar curve with
similarity dimension log(n_segments)/log(divisions).

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

from .errors import GeometryInvalid, InsufficientData

_TOL = 1e-9


def similarity_dimension(n_segments: int, divisions: int) -> float:
    """log N / log(1/r) for N equal segments of length 1/divisions."""
    return math.log(n_segments) / math.log(divisions)


@dataclass(frozen=True)
class GeneratorSpec:
    vertices: np.ndarray
    divisions: int

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 2:
            raise GeometryInvalid("generator needs an (n, 3) vertex array")
        if self.divisions < 2:
            raise GeometryInvalid("divisions must be at least 2")
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

    @property
    def ratio(self) -> float:
        return 1.0 / self.divisions

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
    if not 1 <= winding <= 4:
        raise GeometryInvalid("winding must be 1..4 (5..8 retrace mirrors)")
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
    of the nine-segment helix has 4.8 million, level 8 has 43 million.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
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


def curve_length(vertices: np.ndarray) -> float:
    return float(np.sum(np.linalg.norm(np.diff(vertices, axis=0), axis=1)))


_SCAN_CHUNK = 256
# longest scalar probe: a chunk scan costs about as much as testing a few
# dozen segments in floats (level-5 helix rulers walk fastest at 32 to 96)
_PROBE_MAX = 64
_T_EPS = 1e-9  # crossings that land on a vertex round to t = 1 +- ulp


def _dot3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row dot products of (n, 3) arrays, summed as (u0 v0 + u2 v2) + u1 v1.

    divider_walk's scalar probe sums in the same order, so a segment
    tests the same whether the probe or the scan reaches it.  It is also
    the order numpy's einsum sums these rows in (numpy 2.4, x86-64), so
    walk lengths match those of the einsum-based scan of earlier versions.
    """
    return (u[:, 0] * v[:, 0] + u[:, 2] * v[:, 2]) + u[:, 1] * v[:, 1]


def _first_crossing(starts, dirs, start_idx, start_t, anchor, eps):
    """First point along the polyline (from the given position) at chord
    distance eps from anchor; returns (idx, t) or None.

    starts/dirs are the per-segment origin and difference vectors; the
    search scans forward in chunks of array operations.
    Roots are accepted up to t = 1 + _T_EPS: a crossing sitting exactly
    on a shared vertex otherwise rounds out of both adjacent segments
    (t = 1 + ulp in one, t = 0 in the next) and the walk loses it.
    """
    n = len(starts)
    eps2 = eps * eps
    hi = 1.0 + _T_EPS
    i = start_idx
    while i < n:
        j = min(i + _SCAN_CHUNK, n)
        d = dirs[i:j]
        w = starts[i:j] - anchor
        aa = _dot3(d, d)
        bb = 2.0 * _dot3(w, d)
        cc = _dot3(w, w) - eps2
        disc = bb * bb - 4.0 * aa * cc
        ok = (disc >= 0.0) & (aa > 0.0)
        root = np.sqrt(np.where(ok, disc, 0.0))
        lo = np.zeros(j - i)
        if i == start_idx:
            lo[0] = start_t
        with np.errstate(divide="ignore", invalid="ignore"):
            t_near = (-bb - root) / (2 * aa)
            t_far = (-bb + root) / (2 * aa)
        t = np.where(ok & (t_near > lo) & (t_near <= hi), t_near,
                     np.where(ok & (t_far > lo) & (t_far <= hi),
                              t_far, np.inf))
        hits = np.flatnonzero(np.isfinite(t))
        if hits.size:
            k = int(hits[0])
            return i + k, min(float(t[k]), 1.0)
        i = j
    return None


def _check_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise GeometryInvalid(f"{name} must be a finite number > 0, "
                              f"got {value!r}")


def divider_walk(vertices: np.ndarray, eps: float) -> float:
    """Ruler length estimate: walk the polyline in chords of length eps
    (first-crossing rule) and return steps * eps plus the leftover chord.

    A chord usually ends within a few segments, and testing those few in
    Python float arithmetic costs less than the array operations of one
    scan chunk.  So each chord first probes twice as many segments as the
    previous chord spanned, and hands the rest of the search to
    _first_crossing when the crossing lies beyond the probe; a probe
    longer than _PROBE_MAX segments is skipped, the scan being the cheaper
    test there.  Both test a segment with the same operations in the same
    order, so the walk takes the same chords whichever of them finds the
    crossing.  Segment data is read as Python floats one chunk at a time.
    Raises GeometryInvalid for a ruler that is not a finite number above 0.
    """
    _check_positive("a ruler", eps)
    verts = np.asarray(vertices, dtype=float)
    starts = verts[:-1]
    dirs = verts[1:] - verts[:-1]
    n = len(starts)
    eps2 = eps * eps
    hi = 1.0 + _T_EPS
    page, base, end = [], 0, 0  # segments base .. end-1 as float lists

    def load(k):
        # the walk only moves forward, so a page starting at k serves
        # the probes that follow
        j = k + _SCAN_CHUNK
        d = dirs[k:j]
        return np.column_stack((starts[k:j], d, _dot3(d, d))).tolist(), \
            k, min(j, n)

    a0, a1, a2 = verts[0].tolist()
    idx, t = 0, 0.0
    probe = 0
    steps = 0
    while True:
        lo = t
        for k in range(idx, min(idx + probe, n)):
            if k >= end:
                page, base, end = load(k)
            s0, s1, s2, d0, d1, d2, aa = page[k - base]
            w0, w1, w2 = s0 - a0, s1 - a1, s2 - a2
            bb = 2.0 * ((w0 * d0 + w2 * d2) + w1 * d1)
            cc = ((w0 * w0 + w2 * w2) + w1 * w1) - eps2
            disc = bb * bb - 4.0 * aa * cc
            if disc >= 0.0 and aa > 0.0:
                root = math.sqrt(disc)
                t = (-bb - root) / (2 * aa)
                if lo < t <= hi:
                    break
                t = (-bb + root) / (2 * aa)
                if lo < t <= hi:
                    break
            lo = 0.0
        else:
            hit = _first_crossing(starts, dirs, min(idx + probe, n), lo,
                                  np.array((a0, a1, a2)), eps)
            if hit is None:
                return steps * eps + float(
                    np.linalg.norm(verts[-1] - np.array((a0, a1, a2))))
            k, t = hit
            if k >= end:
                page, base, end = load(k)
            s0, s1, s2, d0, d1, d2, aa = page[k - base]
        probe = 2 * (k - idx + 1)
        if probe > _PROBE_MAX:
            probe = 0
        steps += 1
        if t >= 1.0:
            # t overshoots 1 by at most _T_EPS; land exactly on the vertex
            # so the next step starts clean
            idx, t = k + 1, 0.0
            if idx == n:
                return steps * eps  # no leftover chord
            if idx >= end:
                page, base, end = load(idx)
            a0, a1, a2 = page[idx - base][:3]
        else:
            idx = k
            a0, a1, a2 = s0 + t * d0, s1 + t * d1, s2 + t * d2


@dataclass
class DimensionEstimate:
    dimension: float
    rulers: np.ndarray
    lengths: np.ndarray


def default_rulers(vertices: np.ndarray, num: int = 10) -> np.ndarray:
    """Geometric ruler ladder from the span chord down to twice the
    shortest segment (below that a polyline just reads as dimension 1).

    For generic curves only.  Divider lengths of self-similar curves
    oscillate log-periodically, and an arbitrary ladder samples the
    oscillation at drifting phase; prefer construction_rulers there.
    Raises GeometryInvalid when either end of the ladder is 0: a closed
    curve, or a segment of length 0.
    """
    verts = np.asarray(vertices, dtype=float)
    span = float(np.linalg.norm(verts[-1] - verts[0]))
    seg_min = float(np.min(np.linalg.norm(np.diff(verts, axis=0), axis=1)))
    if not (span > 0.0 and seg_min > 0.0):
        raise GeometryInvalid(
            f"no default ruler ladder from span {span!r} down to twice the "
            f"shortest segment {seg_min!r}; pass rulers")
    return np.geomspace(span, 2.0 * seg_min, num)


def construction_rulers(divisions: int, level: int) -> np.ndarray:
    """Phase-locked ladder (1/divisions)**j, j = 0..level, for curves
    built by iterate: sampling at the construction ratio holds the
    lacunarity oscillation at fixed phase so it cancels from the slope."""
    return (1.0 / divisions) ** np.arange(level + 1)


def measured_dimension(vertices: np.ndarray, rulers=None,
                       min_decades: float = 2.0) -> DimensionEstimate:
    """Divider (ruler) dimension: slope of log L(eps) against log(1/eps),
    plus one, with each L(eps) from one forward divider walk.

    Raises InsufficientData when the rulers span fewer than min_decades
    decades (or min_decades is NaN); self-similar curves below level 5
    cannot honestly reach two decades, so convergence studies over levels
    pass a lower min_decades explicitly.  Raises GeometryInvalid for a
    curve of fewer than two vertices, rulers that are not a flat list of
    at least one, a ruler that is not a finite number above 0, or a walk
    of length 0.
    """
    verts = np.asarray(vertices, dtype=float)
    if len(verts) < 2:
        raise GeometryInvalid("need a curve of at least two vertices")
    rulers = default_rulers(verts) if rulers is None else \
        np.asarray(rulers, dtype=float)
    if rulers.ndim != 1 or rulers.size == 0:
        raise GeometryInvalid(
            f"need a flat list of at least one ruler, got shape "
            f"{rulers.shape}")
    for eps in rulers.tolist():
        _check_positive("a ruler", eps)
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
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 2 or verts.shape[1] != 3:
        raise GeometryInvalid("need an (n, 3) vertex array with n >= 2")
    span_vec = verts[-1] - verts[0]
    span = float(np.linalg.norm(span_vec))
    if span < 1e-12:
        raise GeometryInvalid("curve endpoints coincide; span axis undefined")
    u = span_vec / span
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(u)))] = 1.0
    n1 = seed - (seed @ u) * u
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(u, n1)
    rel = verts - verts[0]
    return span, rel @ u, rel @ n1, rel @ n2


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
    span, _, t1, t2 = _axis_frame(vertices)
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
    _check_positive("the mass m", m)
    _check_positive("the speed v", v)
    return 2.0 * math.pi * hbar * spin_kernel(vertices) / period_factor


def shrink_transverse(vertices: np.ndarray, q: float) -> np.ndarray:
    """Contract the curve towards its span axis by 1/q, azimuths intact."""
    _check_positive("the shrink factor q", q)
    verts = np.asarray(vertices, dtype=float)
    _, axial, t1, t2 = _axis_frame(verts)
    span_vec = verts[-1] - verts[0]
    u = span_vec / np.linalg.norm(span_vec)
    transverse = (verts - verts[0]) - np.outer(axial, u)
    return verts[0] + np.outer(axial, u) + transverse / q


def scaling_factor(q: float, d_f: float) -> float:
    """Spin rescaling q**(d_f - 2) under a transverse shrink by 1/q with
    the traversal period rescaled by q**(-d_f)."""
    _check_positive("the shrink factor q", q)
    return q ** (d_f - 2.0)


def flag_unreproduced_reference() -> str:
    return ("sigma = 0.42 hbar is quoted for an unpublished hyperhelix "
            "geometry and is not reproduced by any generator here; treat "
            "it as an external reference value only.")
