import math
import tracemalloc

import numpy as np
import pytest

from fractalspin.errors import GeometryInvalid, InsufficientData
from fractalspin.hyperhelix import (
    GeneratorSpec,
    construction_rulers,
    curve_length,
    curve_spin,
    default_rulers,
    divider_walk,
    flag_unreproduced_reference,
    helical_generator,
    iterate,
    koch_generator,
    line_generator,
    measured_dimension,
    scaling_factor,
    shrink_transverse,
    similarity_dimension,
    spin_kernel,
    _rotation_to,
)


def test_similarity_dimension_values():
    assert similarity_dimension(9, 3) == 2.0  # exact in float64
    assert abs(similarity_dimension(4, 3) - math.log(4) / math.log(3)) == 0.0
    assert similarity_dimension(3, 3) == 1.0
    assert helical_generator().dimension() == 2.0
    assert line_generator(5).dimension() == 1.0


def test_generator_validation():
    with pytest.raises(GeometryInvalid):
        GeneratorSpec(np.array([[0.1, 0, 0], [1, 0, 0]]), divisions=2)
    with pytest.raises(GeometryInvalid):
        GeneratorSpec(np.array([[0, 0, 0], [0.5, 0, 0], [1, 0.1, 0]]),
                      divisions=2)
    with pytest.raises(GeometryInvalid):
        # chains correctly but with unequal segments
        GeneratorSpec(np.array([[0, 0, 0], [0.7, 0, 0], [1, 0, 0]]),
                      divisions=2)
    with pytest.raises(GeometryInvalid):
        GeneratorSpec(np.array([[0.0, 0, 0], [1, 0, 0]]), divisions=1)
    ok = GeneratorSpec(np.array([[0, 0, 0], [0.5, 0, 0], [1.0, 0, 0]]),
                       divisions=2)
    assert ok.n_segments == 2 and ok.ratio == 0.5


def test_helical_family_geometry():
    for w in (1, 2, 3, 4):
        gen = helical_generator(w)
        assert gen.n_segments == 9
        segs = np.linalg.norm(np.diff(gen.vertices, axis=0), axis=1)
        assert np.max(np.abs(segs - 1.0 / 3.0)) < 1e-12
        assert np.linalg.norm(gen.vertices[-1] - [1, 0, 0]) < 1e-12
    with pytest.raises(GeometryInvalid):
        helical_generator(0)
    with pytest.raises(GeometryInvalid):
        helical_generator(5)


def test_rotation_to_properties():
    rng = np.random.default_rng(31)
    for _ in range(50):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        rot = _rotation_to(d)
        assert np.allclose(rot @ [1.0, 0.0, 0.0], d, atol=1e-12)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert math.isclose(np.linalg.det(rot), 1.0, abs_tol=1e-12)
    assert np.allclose(_rotation_to(np.array([-1.0, 0, 0])) @ [1, 0, 0],
                       [-1, 0, 0], atol=1e-15)
    # a stack of directions, the two special cases among them, gives the
    # stack of the rotations the scalar oracle builds one by one
    dirs = rng.standard_normal((40, 3))
    dirs[5], dirs[17] = [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rots = _rotation_to(dirs)
    assert rots.shape == (40, 3, 3)
    for d, rot in zip(dirs, rots):
        assert np.allclose(rot, _oracle_rotation_to(d), rtol=0, atol=1e-15)


def test_iterate_counts_and_lengths():
    gen = helical_generator()
    assert iterate(gen, 0).shape == (2, 3)
    lvl1 = iterate(gen, 1)
    assert np.allclose(lvl1, gen.vertices, atol=1e-14)
    lvl2 = iterate(gen, 2)
    assert lvl2.shape == (9 ** 2 + 1, 3)
    segs = np.linalg.norm(np.diff(lvl2, axis=0), axis=1)
    assert np.max(np.abs(segs - 1.0 / 9.0)) < 1e-12
    assert math.isclose(curve_length(lvl2), 9.0, rel_tol=1e-12)
    assert np.allclose(lvl2[0], [0, 0, 0]) and np.allclose(lvl2[-1], [1, 0, 0])
    with pytest.raises(ValueError):
        iterate(gen, -1)


def test_iterate_size_guard_allocates_nothing():
    gen = helical_generator()
    tracemalloc.start()
    try:
        for level in (9, 10 ** 9):
            with pytest.raises(GeometryInvalid, match="more than 10000000"):
                iterate(gen, level)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_divider_walk_on_line_and_circle():
    line = iterate(line_generator(), 3)
    assert abs(divider_walk(line, 0.1) - 1.0) < 1e-12
    th = np.linspace(0.0, 2 * np.pi, 5001)
    circle = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    eps = 0.05
    n_chords = math.floor(2 * np.pi / (2 * math.asin(eps / 2)))
    assert abs(divider_walk(circle, eps) - n_chords * eps) < 2 * eps


def test_koch_walk_is_exact_at_construction_scales():
    verts = iterate(koch_generator(), 4)
    rulers = construction_rulers(3, 4)
    lengths = np.array([divider_walk(verts, e) for e in rulers])
    assert np.allclose(lengths, (4.0 / 3.0) ** np.arange(5), rtol=1e-10)
    est = measured_dimension(verts, rulers=rulers, min_decades=1.9)
    assert abs(est.dimension - similarity_dimension(4, 3)) < 1e-6


def test_measured_dimension_line_and_helix():
    line = iterate(line_generator(), 5)
    est = measured_dimension(line, rulers=construction_rulers(3, 5))
    assert abs(est.dimension - 1.0) < 1e-9
    helix = iterate(helical_generator(), 4)
    est = measured_dimension(helix, rulers=construction_rulers(3, 4),
                             min_decades=1.9)
    assert abs(est.dimension - 2.0) < 0.1


def test_measured_dimension_converges_with_level():
    gen = helical_generator()
    errs = []
    for lvl in (3, 4):
        est = measured_dimension(iterate(gen, lvl),
                                 rulers=construction_rulers(3, lvl),
                                 min_decades=1.4)
        errs.append(abs(est.dimension - 2.0))
    assert errs[1] < errs[0] < 0.15


def test_measured_dimension_insufficient_span():
    verts = iterate(helical_generator(), 3)
    with pytest.raises(InsufficientData):
        measured_dimension(verts, rulers=construction_rulers(3, 3))


def test_measured_dimension_nan_min_decades_fails_the_gate():
    verts = iterate(helical_generator(), 2)
    with pytest.raises(InsufficientData):
        measured_dimension(verts, rulers=construction_rulers(3, 2),
                           min_decades=math.nan)


def test_measured_dimension_degenerate_curves():
    # one vertex, and two that coincide: every divider walk has length 0
    for curve in (np.zeros((1, 3)), np.zeros((2, 3))):
        with pytest.raises(GeometryInvalid):
            measured_dimension(curve, rulers=[1.0, 1000.0])


@pytest.mark.parametrize("eps", [0.0, -0.0, -1.0, math.nan, math.inf,
                                 -math.inf])
def test_divider_walk_refuses_a_ruler_not_finite_and_positive(eps):
    verts = iterate(helical_generator(), 2)
    with pytest.raises(GeometryInvalid, match="finite number > 0"):
        divider_walk(verts, eps)


@pytest.mark.parametrize("rulers", [
    [-1.0, 1.0, 1000.0], [0.0, 1.0, 1000.0], [1e-3, 1.0, math.nan],
    [1e-3, 1.0, math.inf], [-1e-3, -1.0],
])
def test_measured_dimension_refuses_a_ruler_not_finite_and_positive(rulers):
    verts = iterate(helical_generator(), 2)
    with pytest.raises(GeometryInvalid, match="finite number > 0"):
        measured_dimension(verts, rulers=rulers, min_decades=0.5)


_NOT_POSITIVE = [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", _NOT_POSITIVE)
def test_curve_spin_refuses_a_mass_or_speed_not_finite_and_positive(bad):
    verts = iterate(helical_generator(), 2)
    with pytest.raises(GeometryInvalid, match="mass m must be a finite"):
        curve_spin(verts, m=bad, v=1.0)
    with pytest.raises(GeometryInvalid, match="speed v must be a finite"):
        curve_spin(verts, m=1.0, v=bad)


@pytest.mark.parametrize("bad", _NOT_POSITIVE)
def test_shrink_transverse_refuses_a_factor_not_finite_and_positive(bad):
    verts = iterate(helical_generator(), 2)
    with pytest.raises(GeometryInvalid, match="q must be a finite number > 0"):
        shrink_transverse(verts, bad)


@pytest.mark.parametrize("bad", _NOT_POSITIVE)
def test_scaling_factor_refuses_a_factor_not_finite_and_positive(bad):
    with pytest.raises(GeometryInvalid, match="q must be a finite number > 0"):
        scaling_factor(bad, 2.0)


@pytest.mark.parametrize("rulers", [[], [[1.0, 0.1], [0.01, 0.001]], 0.5])
def test_measured_dimension_refuses_rulers_not_a_flat_list(rulers):
    verts = iterate(helical_generator(), 2)
    with pytest.raises(GeometryInvalid, match="flat list of at least one"):
        measured_dimension(verts, rulers=rulers)


@pytest.mark.parametrize("verts", [
    [[0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 1, 0]],  # a zero-length segment
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 0]],  # a closed curve
])
def test_default_rulers_refuse_a_ladder_ending_at_zero(verts):
    with pytest.raises(GeometryInvalid, match="no default ruler ladder"):
        measured_dimension(np.array(verts, dtype=float), min_decades=0.1)


def test_ruler_ladders():
    verts = iterate(helical_generator(), 3)
    rulers = default_rulers(verts)
    seg = 1.0 / 27.0
    assert math.isclose(rulers[0], 1.0, rel_tol=1e-9)
    assert math.isclose(rulers[-1], 2 * seg, rel_tol=1e-9)
    assert np.allclose(construction_rulers(3, 3), [1, 1 / 3, 1 / 9, 1 / 27])


def test_curve_spin_mass_speed_independent():
    verts = iterate(helical_generator(), 3)
    s0 = curve_spin(verts, m=1.0, v=1.0)
    assert abs(curve_spin(verts, m=12.0, v=0.003) - s0) < 1e-12 * abs(s0)
    assert math.isclose(curve_spin(verts, m=2.0, v=5.0, hbar=7.0), 7.0 * s0,
                        rel_tol=1e-12)
    assert math.isclose(s0, 2 * np.pi * spin_kernel(verts), rel_tol=1e-12)


def test_curve_spin_sign_and_degenerate_axis():
    verts = iterate(helical_generator(), 3)
    mirrored = verts * np.array([1.0, 1.0, -1.0])
    assert math.isclose(curve_spin(mirrored, 1.0, 1.0),
                        -curve_spin(verts, 1.0, 1.0), rel_tol=1e-12)
    th = np.linspace(0.0, 2 * np.pi, 100)
    closed = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    with pytest.raises(GeometryInvalid):
        curve_spin(closed, 1.0, 1.0)
    with pytest.raises(GeometryInvalid):
        curve_spin(verts, m=-1.0, v=1.0)
    # straight axial line carries no winding at all
    assert curve_spin(iterate(line_generator(), 2), 1.0, 1.0) == 0.0


def test_curve_spin_against_smooth_swirl():
    # r(t) = a sin(pi t) about the z axis, phi = 2 pi N t, endpoints on
    # the axis: integral r^2 dphi = pi N a^2 exactly
    n, turns, a = 20_000, 3, 0.2
    t = np.linspace(0.0, 1.0, n)
    r = a * np.sin(np.pi * t)
    verts = np.stack([r * np.cos(2 * np.pi * turns * t),
                      r * np.sin(2 * np.pi * turns * t), t], axis=1)
    sigma = curve_spin(verts, m=1.0, v=1.0)
    assert math.isclose(sigma, 2 * np.pi * (np.pi * turns * a ** 2),
                        rel_tol=1e-5)


def test_transverse_shrink_and_scaling_law():
    verts = iterate(helical_generator(), 3)
    q = 3.0
    shrunk = shrink_transverse(verts, q)
    assert np.allclose(shrunk[0], verts[0]) and np.allclose(shrunk[-1],
                                                            verts[-1])
    # axial coordinates intact, transverse distances shrunk by 1/q
    assert np.allclose(shrunk[:, 0], verts[:, 0], atol=1e-12)
    assert np.allclose(np.hypot(shrunk[:, 1], shrunk[:, 2]),
                       np.hypot(verts[:, 1], verts[:, 2]) / q, atol=1e-12)
    s0 = curve_spin(verts, 1.0, 1.0)
    for qq in (2.0, 3.0, 9.0):
        s_q = curve_spin(shrink_transverse(verts, qq), 1.0, 1.0,
                         period_factor=qq ** (-2.0))
        assert abs(s_q / s0 - scaling_factor(qq, 2.0)) < 1e-9
        # a non-degenerate exponent exercises the same bookkeeping
        s_g = curve_spin(shrink_transverse(verts, qq), 1.0, 1.0,
                         period_factor=qq ** (-1.5))
        assert abs(s_g / s0 - scaling_factor(qq, 1.5)) < 1e-9
    with pytest.raises(GeometryInvalid):
        shrink_transverse(verts, 0.0)


def test_scaling_factor_values():
    assert scaling_factor(2.0, 2.0) == 1.0
    assert math.isclose(scaling_factor(3.0, 1.0), 1.0 / 3.0)
    assert math.isclose(scaling_factor(4.0, 1.5), 0.5)


def test_reference_spin_flagged_not_reproduced():
    note = flag_unreproduced_reference()
    assert "0.42" in note and "not reproduced" in note


# -- oracles: the per-segment iterate and the chunked-scan divider walk ------
# These are the implementations the batched iterate and the probing walk
# replaced, kept verbatim as references.


def _oracle_rotation_to(direction):
    x = np.array([1.0, 0.0, 0.0])
    c = float(direction @ x)
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([-1.0, 1.0, -1.0])
    axis = np.cross(x, direction)
    s = np.linalg.norm(axis)
    axis = axis / s
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def _oracle_iterate(gen, level):
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    inner = gen.vertices[1:-1]
    for _ in range(level):
        pieces = [verts[:1]]
        for a, b in zip(verts[:-1], verts[1:]):
            d = b - a
            length = np.linalg.norm(d)
            rot = _oracle_rotation_to(d / length)
            pieces.append(a + length * (inner @ rot.T))
            pieces.append(b[None])
        verts = np.concatenate(pieces)
    return verts


def _oracle_first_crossing(starts, dirs, start_idx, start_t, anchor, eps):
    n = len(starts)
    eps2 = eps * eps
    hi = 1.0 + 1e-9
    i = start_idx
    while i < n:
        j = min(i + 256, n)
        d = dirs[i:j]
        w = starts[i:j] - anchor
        aa = np.einsum("ij,ij->i", d, d)
        bb = 2.0 * np.einsum("ij,ij->i", w, d)
        cc = np.einsum("ij,ij->i", w, w) - eps2
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


def _oracle_divider_walk(vertices, eps):
    verts = np.asarray(vertices, dtype=float)
    starts = verts[:-1]
    dirs = verts[1:] - verts[:-1]
    anchor = verts[0]
    idx, t = 0, 0.0
    steps = 0
    while True:
        hit = _oracle_first_crossing(starts, dirs, idx, t, anchor, eps)
        if hit is None:
            return steps * eps + float(np.linalg.norm(verts[-1] - anchor))
        idx, t = hit
        if t >= 1.0:
            anchor = verts[idx + 1]
            idx, t = idx + 1, 0.0
        else:
            anchor = starts[idx] + t * dirs[idx]
        steps += 1


@pytest.mark.parametrize("gen, level", [
    (helical_generator(1), 4), (helical_generator(2), 4),
    (helical_generator(3), 4), (helical_generator(4), 4),
    (koch_generator(), 5), (line_generator(4), 3),
], ids=["helix1", "helix2", "helix3", "helix4", "koch", "line"])
def test_iterate_matches_per_segment_oracle(gen, level):
    got = iterate(gen, level)
    want = _oracle_iterate(gen, level)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("gen, level", [
    (helical_generator(1), 4), (helical_generator(2), 4),
    (helical_generator(3), 4), (helical_generator(4), 4),
    (koch_generator(), 5),
], ids=["helix1", "helix2", "helix3", "helix4", "koch"])
def test_divider_walk_matches_oracle_on_construction_rulers(gen, level):
    verts = _oracle_iterate(gen, level)
    for eps in construction_rulers(gen.divisions, level):
        assert divider_walk(verts, eps) == _oracle_divider_walk(verts, eps)


def test_divider_walk_matches_oracle_on_random_walk():
    # uneven steps, so chords span anything from part of one segment to
    # hundreds of segments, walked both ways.
    # A long walk's length hides the last bits of its chords, so short
    # pieces, whose leftover chord carries those bits, are compared too
    rng = np.random.default_rng(37)
    walk = np.cumsum(rng.standard_normal((2001, 3)), axis=0)
    pieces = [walk] + [walk[o:o + 21] for o in range(0, 2000, 40)]
    for piece in pieces:
        for verts in (piece, piece[::-1]):
            for eps in (0.5, 1.5, 5.0, 15.0):
                assert divider_walk(verts, eps) == \
                    _oracle_divider_walk(verts, eps)
