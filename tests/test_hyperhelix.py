import math
import tracemalloc

import numpy as np
import pytest

from fractalspin import hyperhelix
from fractalspin.errors import GeometryInvalid, InsufficientData, finite
from fractalspin.hyperhelix import (
    GeneratorSpec,
    construction_rulers,
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
    _vertex_array,
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
    assert ok.n_segments == 2


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
    assert math.isclose(segs.sum(), 9.0, rel_tol=1e-12)
    assert np.allclose(lvl2[0], [0, 0, 0]) and np.allclose(lvl2[-1], [1, 0, 0])
    with pytest.raises(GeometryInvalid,
                       match="key level: need a whole number of at least "
                             "0, got -1"):
        iterate(gen, -1)


@pytest.mark.parametrize("call, message", [
    (lambda: iterate(helical_generator(), 2.0),
     "key level: need a whole number of at least 0, got 2.0"),
    (lambda: line_generator(2.5),
     "key divisions: need a whole number of at least 2, got 2.5"),
    (lambda: helical_generator(2.5),
     "key winding: need a whole number of at least 1, got 2.5"),
    (lambda: helical_generator(5),
     "key winding: need at most 4, got 5"),
    (lambda: construction_rulers(3, 2.5),
     "key level: need a whole number of at least 0, got 2.5"),
    (lambda: construction_rulers(1, 3),
     "key divisions: need a whole number of at least 2, got 1"),
    (lambda: GeneratorSpec(np.array([[0.0, 0, 0], [1, 0, 0]]), divisions=1.0),
     "key divisions: need a whole number of at least 2, got 1.0"),
])
def test_whole_number_keys_are_refused_by_name(call, message):
    # iterate and line_generator ended in a bare TypeError, the winding
    # 2.5 in "generator must end at (1, 0, 0)", and construction_rulers
    # returned four rulers for level 2.5 and a ladder of 1.0s for 1
    with pytest.raises(GeometryInvalid, match=message):
        call()


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


# one ruler ended in numpy's LinAlgError, three equal ones in a dimension
# of 1.29 from a degenerate fit with a RankWarning
@pytest.mark.parametrize("level, rulers, min_decades, message", [
    (3, construction_rulers(3, 3), 2.0, "ruler span 1.43 decades < 2.00"),
    (0, construction_rulers(3, 0), 0.0,
     "need at least two distinct rulers for a slope, got only 1.0"),
    (2, [0.3, 0.3, 0.3], 0.0,
     "need at least two distinct rulers for a slope, got only 0.3"),
])
def test_measured_dimension_insufficient_rulers(monkeypatch, level, rulers,
                                                min_decades, message):
    def no_walk(*args):
        raise AssertionError("a divider walk ran")

    verts = iterate(helical_generator(4), level)
    monkeypatch.setattr(hyperhelix, "divider_walk", no_walk)
    with pytest.raises(InsufficientData, match=message):
        measured_dimension(verts, rulers=rulers, min_decades=min_decades)


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
    with pytest.raises(GeometryInvalid,
                       match="key eps: need a finite number > 0"):
        divider_walk(verts, eps)


@pytest.mark.parametrize("rulers", [
    [-1.0, 1.0, 1000.0], [0.0, 1.0, 1000.0], [1e-3, 1.0, math.nan],
    [1e-3, 1.0, math.inf], [-1e-3, -1.0],
])
def test_measured_dimension_refuses_a_ruler_not_finite_and_positive(rulers):
    verts = iterate(helical_generator(), 2)
    with pytest.raises(GeometryInvalid,
                       match=r"key rulers: need \w+ finite numbers > 0"):
        measured_dimension(verts, rulers=rulers, min_decades=0.5)


_NOT_POSITIVE = [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", _NOT_POSITIVE)
def test_curve_spin_refuses_a_mass_or_speed_not_finite_and_positive(bad):
    verts = iterate(helical_generator(), 2)
    with pytest.raises(GeometryInvalid,
                       match="key m: need a finite number > 0"):
        curve_spin(verts, m=bad, v=1.0)
    with pytest.raises(GeometryInvalid,
                       match="key v: need a finite number > 0"):
        curve_spin(verts, m=1.0, v=bad)


@pytest.mark.parametrize("bad", _NOT_POSITIVE)
def test_curve_spin_refuses_an_hbar_not_finite_and_positive(bad):
    verts = iterate(helical_generator(), 2)
    with pytest.raises(GeometryInvalid,
                       match="key hbar: need a finite number > 0"):
        curve_spin(verts, m=1.0, v=1.0, hbar=bad)


@pytest.mark.parametrize("bad", _NOT_POSITIVE)
def test_curve_spin_refuses_a_period_factor_not_finite_and_positive(bad):
    verts = iterate(helical_generator(), 2)
    with pytest.raises(GeometryInvalid,
                       match="key period_factor: need a finite number"):
        curve_spin(verts, m=1.0, v=1.0, period_factor=bad)


@pytest.mark.parametrize("bad", _NOT_POSITIVE)
def test_shrink_transverse_refuses_a_factor_not_finite_and_positive(bad):
    verts = iterate(helical_generator(), 2)
    with pytest.raises(GeometryInvalid,
                       match="key q: need a finite number > 0"):
        shrink_transverse(verts, bad)


@pytest.mark.parametrize("bad", _NOT_POSITIVE)
def test_scaling_factor_refuses_a_factor_not_finite_and_positive(bad):
    with pytest.raises(GeometryInvalid,
                       match="key q: need a finite number > 0"):
        scaling_factor(bad, 2.0)


@pytest.mark.parametrize("bad", _NOT_POSITIVE)
def test_scaling_factor_refuses_a_dimension_not_finite_and_positive(bad):
    with pytest.raises(GeometryInvalid,
                       match="key d_f: need a finite number > 0"):
        scaling_factor(2.0, bad)


# ragged rulers ended in numpy's bare ValueError
@pytest.mark.parametrize("rulers", [[], [[1.0, 0.1], [0.01, 0.001]], 0.5,
                                    [[1, 2], [3]]])
def test_measured_dimension_refuses_rulers_not_a_flat_list(rulers):
    verts = iterate(helical_generator(), 2)
    with pytest.raises(GeometryInvalid,
                       match="key rulers: need a flat list of at least one"):
        measured_dimension(verts, rulers=rulers)


@pytest.mark.parametrize("verts", [
    [[0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 1, 0]],  # a zero-length segment
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 0]],  # a closed curve
])
def test_default_rulers_refuse_a_ladder_ending_at_zero(verts):
    with pytest.raises(GeometryInvalid, match="no default ruler ladder"):
        measured_dimension(np.array(verts, dtype=float), min_decades=0.1)


# a walk over a NaN vertex returned 1.0, the dimension read 1.0 and the
# spin NaN, all without an error
@pytest.mark.parametrize("call", [
    lambda verts: divider_walk(verts, 0.1),
    lambda verts: measured_dimension(verts, rulers=[1e-3, 1.0]),
    lambda verts: curve_spin(verts, m=1.0, v=1.0),
    spin_kernel,
    lambda verts: shrink_transverse(verts, 2.0),
    # a generator with a NaN vertex was taken
    lambda verts: GeneratorSpec(verts, divisions=2),
], ids=["divider_walk", "measured_dimension", "curve_spin", "spin_kernel",
        "shrink_transverse", "GeneratorSpec"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_curve_functions_refuse_a_vertex_not_finite(call, bad):
    verts = np.array([[0.0, 0.0, 0.0], [0.5, bad, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(GeometryInvalid, match="need finite vertex"):
        call(verts)


_CURVE_CALLS = {
    "divider_walk": lambda verts: divider_walk(verts, 0.1),
    "default_rulers": default_rulers,
    "measured_dimension": lambda verts: measured_dimension(
        verts, rulers=[1e-3, 1.0]),
    "curve_spin": lambda verts: curve_spin(verts, m=1.0, v=1.0),
    "spin_kernel": spin_kernel,
    "shrink_transverse": lambda verts: shrink_transverse(verts, 2.0),
    "GeneratorSpec": lambda verts: GeneratorSpec(verts, divisions=3),
}
_HELIX2 = iterate(helical_generator(), 2)
_NOT_A_CURVE = {
    "ragged": [[0.0, 0.0, 0.0], [0.5, 0.1], [1.0, 0.0, 0.0]],
    "four columns": np.column_stack((_HELIX2, np.zeros(len(_HELIX2)))),
    "two columns": _HELIX2[:, :2],
    "one axis": _HELIX2[:, 0],
    "one vertex": np.zeros((1, 3)),
    "strings": _HELIX2.astype(str),
}


# each ended in a bare ValueError, TypeError or numpy AxisError, or gave a
# number (strings were cast to floats); the calls and inputs left out were
# already refused in this wording
@pytest.mark.parametrize("call, curve", [
    *[(call, "ragged") for call in _CURVE_CALLS],
    *[(call, curve)
      for call in ("divider_walk", "default_rulers", "measured_dimension")
      for curve in ("four columns", "two columns", "one axis")],
    ("divider_walk", "one vertex"), ("default_rulers", "one vertex"),
    *[(call, "strings") for call in _CURVE_CALLS if call != "GeneratorSpec"],
])
def test_curve_functions_refuse_vertices_not_an_n_by_3_array(call, curve):
    with pytest.raises(GeometryInvalid,
                       match=r"need an \(n, 3\) vertex array with n >= 2"):
        _CURVE_CALLS[call](_NOT_A_CURVE[curve])


# (2, 1) ended in a ZeroDivisionError, (0, 3) and (9, 0) in a ValueError
# from math.log, and a NaN count gave NaN
@pytest.mark.parametrize("n_segments, divisions",
                         [(2, 1), (0, 3), (9, 0), (math.nan, 3)])
def test_similarity_dimension_refuses_a_degenerate_generator(n_segments,
                                                             divisions):
    with pytest.raises(GeometryInvalid,
                       match="need n_segments >= 1 and divisions >= 2"):
        similarity_dimension(n_segments, divisions)


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


def test_curve_spin_does_not_depend_on_the_curve_scale():
    # the endpoint test compares the span with the curve's extent: an
    # absolute 1e-12 refused the 1e-13 copy as a curve whose endpoints
    # coincide
    verts = iterate(helical_generator(4), 2)
    sigma = curve_spin(verts, 1.0, 1.0)
    for scale in (1e-13, 1e-6, 1e13):
        assert math.isclose(curve_spin(verts * scale, 1.0, 1.0), sigma,
                            rel_tol=1e-14)
    th = np.linspace(0.0, 2 * np.pi, 100)
    closed = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    for scale in (1e-13, 1.0, 1e13):
        with pytest.raises(GeometryInvalid, match="curve endpoints coincide"):
            curve_spin(closed * scale, 1.0, 1.0)
    with pytest.raises(GeometryInvalid, match="curve endpoints coincide"):
        spin_kernel(np.zeros((3, 3)))


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


def test_divider_walk_matches_oracle_on_the_level5_helix():
    # the benchmark's curve at its four coarsest construction rulers (the
    # two finest take the oracle tens of seconds), walked both ways
    verts = iterate(helical_generator(4), 5)
    for eps in construction_rulers(3, 5)[:4]:
        for v in (verts, verts[::-1]):
            assert divider_walk(v, eps) == _oracle_divider_walk(v, eps)


def test_divider_walk_matches_oracle_at_the_skip_margin():
    # from the origin, vertex 2 lies exactly on the unit sphere, so the
    # first chord lands on it; from there, vertex 4 lies inside the ball
    # but within the 1e-6 margin (squared distance 1 - 6e-7), so its
    # segments are tested rather than skipped
    verts = np.array([[0.0, 0.0, 0.0], [0.5, 0.1, 0.2], [0.0, 0.0, 1.0],
                      [0.3, 0.4, 1.2], [0.0, 1.0 - 3e-7, 1.0],
                      [0.0, 2.0, 1.5], [0.4, 2.2, 0.9]])
    assert divider_walk(verts[:3], 1.0) == 1.0
    for v in (verts, verts[::-1]):
        for eps in (1.0, 1.0 - 3e-7, 0.7):
            assert divider_walk(v, eps) == _oracle_divider_walk(v, eps)


def test_divider_walk_matches_oracle_on_long_and_empty_segments():
    # segments far longer than the ruler and one of length 0.  The first
    # is 1000 - 7e-7 long: the chord from 999 ends 1 - 7e-7 from its
    # anchor, inside the skip margin, yet the crossing's root sits 7e-10
    # past that vertex, within the test's tolerance, so the walk lands on
    # the vertex.  Judging the anchor's segment by the anchor instead of
    # its start would skip it and walk past
    verts = np.array([[0.0, 0.0, 0.0], [1000.0 - 7e-7, 0.0, 0.0],
                      [1000.0 - 7e-7, 3.0, 0.0], [1000.0 - 7e-7, 3.0, 0.0],
                      [1002.5, 3.0, 1.0], [1002.5, 0.2, 1.0]])
    for v in (verts, verts[::-1]):
        for eps in (1.0, 0.7, 2.5):
            assert divider_walk(v, eps) == _oracle_divider_walk(v, eps)


# -- the probing walk: divider_walk before the chain table, kept verbatim as
# the reference that the table's jumps must match bit for bit, fast enough
# for the finest rulers of a level-5 curve.  Its constants are those of
# that version of the module.

_PROBING_SCAN_CHUNK = 256
_PROBING_PROBE_MAX = 64
_PROBING_T_EPS = 1e-9
_PROBING_MARGIN = 1e-6


def _probing_dot3(u, v):
    return (u[:, 0] * v[:, 0] + u[:, 2] * v[:, 2]) + u[:, 1] * v[:, 1]


def _probing_first_crossing(verts, k, anchor, ball2):
    i, size = k, _PROBING_SCAN_CHUNK
    while i < len(verts):
        w = verts[i:i + size] - anchor
        far = np.flatnonzero(_probing_dot3(w, w) >= ball2)
        if far.size:
            return max(i + int(far[0]) - 1, k)
        i, size = i + size, 2 * size
    return None


def _probing_divider_walk(vertices, eps):
    eps = finite("key eps", eps, positive=True, error=GeometryInvalid)
    verts = _vertex_array(vertices)
    dirs = verts[1:] - verts[:-1]
    n = len(dirs)
    eps2 = eps * eps
    ball2 = eps2 * (1.0 - _PROBING_MARGIN)  # the ball less its margin
    hi = 1.0 + _PROBING_T_EPS
    page, base, end = [], 0, 0  # segments base .. end-1 as float lists

    def load(k):
        # the walk only moves forward, so a page starting at k serves the
        # segments that follow; a row is a segment's start, difference,
        # squared length and end
        j = min(k + _PROBING_SCAN_CHUNK, n)
        d = dirs[k:j]
        return np.column_stack((verts[k:j], d, _probing_dot3(d, d),
                                verts[k + 1:j + 1])).tolist(), k, j

    a0, a1, a2 = verts[0].tolist()
    idx, t = 0, 0.0
    probe = 0
    steps = 0
    while True:
        k, lo, stop = idx, t, min(idx + probe, n)
        ww = None  # squared distance of segment k's start from the anchor
        while True:
            if k == stop:
                hit = None if k == n else _probing_first_crossing(
                    verts, k, np.array((a0, a1, a2)), ball2)
                if hit is None:
                    return steps * eps + float(
                        np.linalg.norm(verts[-1] - np.array((a0, a1, a2))))
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
        if probe > _PROBING_PROBE_MAX:
            probe = 0
        steps += 1
        if t >= 1.0:
            # t overshoots 1 by at most _T_EPS; land exactly on the vertex
            # so the next step starts clean
            idx, t = k + 1, 0.0
            if idx == n:
                return steps * eps  # no leftover chord
            a0, a1, a2 = e0, e1, e2
        else:
            idx = k
            a0, a1, a2 = s0 + t * d0, s1 + t * d1, s2 + t * d2


_CHAIN_TABLE = hyperhelix._chain_table


@pytest.fixture
def tables(monkeypatch):
    """The rulers divider_walk builds a chain table for, in call order."""
    built = []

    def spy(verts, dirs, seg2, eps):
        built.append(eps)
        return _CHAIN_TABLE(verts, dirs, seg2, eps)

    monkeypatch.setattr(hyperhelix, "_chain_table", spy)
    return built


def _table(verts, eps):
    """The chain table of the curve at ruler eps, as arrays."""
    dirs = verts[1:] - verts[:-1]
    to, chords = _CHAIN_TABLE(verts, dirs, hyperhelix._dot3(dirs, dirs), eps)
    return np.array(to), np.array(chords)


def _chain_oracle(verts, j, eps, cap):
    """The chain from vertex j, one segment test at a time in Python
    floats: (the vertex where its chords land exactly, their number), or
    (-1, 0) when they run off the curve's end or take more than cap
    tests."""
    eps2 = eps * eps
    ball2 = eps2 * (1.0 - 1e-6)
    hi = 1.0 + 1e-9
    a = verts[j].tolist()
    k, lo, chords = j, 0.0, 0
    for _ in range(cap):
        if k == len(verts) - 1:
            break
        s, e = verts[k].tolist(), verts[k + 1].tolist()
        d, w, f = ([p - q for p, q in zip(u, v)]
                   for u, v in ((e, s), (s, a), (e, a)))
        aa, ww, ff = ((u[0] * u[0] + u[2] * u[2]) + u[1] * u[1]
                      for u in (d, w, f))
        hit = None
        if ww >= ball2 or ff >= ball2:
            bb = 2.0 * ((w[0] * d[0] + w[2] * d[2]) + w[1] * d[1])
            disc = bb * bb - 4.0 * aa * (ww - eps2)
            if disc >= 0.0 and aa > 0.0:
                root = math.sqrt(disc)
                hit = next((t for t in ((-bb - root) / (2 * aa),
                                        (-bb + root) / (2 * aa))
                            if lo < t <= hi), None)
        if hit is None:
            k, lo = k + 1, 0.0
            continue
        chords += 1
        if hit >= 1.0:
            return k + 1, chords
        a, lo = [p + hit * q for p, q in zip(s, d)], hit
    return -1, 0


@pytest.mark.parametrize("winding", [1, 4])
def test_chain_table_matches_a_chain_by_chain_oracle(winding):
    # every origin of a small curve, at rulers whose chords span segments
    # and at rulers whose chords fall inside them; the walks visit only
    # some of the chains, so a wrong entry can leave every walk intact
    verts = iterate(helical_generator(winding), 3)
    closed = 0
    for eps in construction_rulers(3, 5)[2:]:
        to, chords = _table(verts, eps)
        closed += np.sum(to >= 0)
        for j in range(len(to)):
            assert (to[j], chords[j]) == _chain_oracle(
                verts, j, eps, hyperhelix._CHAIN_ROUNDS)
    assert closed > 1000


def _assert_walks_match(curves, rulers):
    for verts in curves:
        for v in (verts, verts[::-1]):
            for eps in rulers:
                assert divider_walk(v, eps) == _probing_divider_walk(v, eps)


@pytest.mark.parametrize("gen", [
    helical_generator(1), helical_generator(2), helical_generator(3),
    helical_generator(4), koch_generator(), line_generator(),
], ids=["helix1", "helix2", "helix3", "helix4", "koch", "line"])
def test_divider_walk_matches_the_probing_walk_on_level5_rulers(gen, tables):
    # all six construction rulers, the finest through the chain table
    rulers = construction_rulers(gen.divisions, 5)
    _assert_walks_match([iterate(gen, 5)], rulers)
    assert tables == [rulers[-1]] * 2


@pytest.mark.parametrize("gen", [helical_generator(1), line_generator()],
                         ids=["helix1", "line"])
@pytest.mark.parametrize("cap", [1, 2, 3, None])
def test_chains_open_at_the_round_cap_walk_as_the_probing_walk(monkeypatch,
                                                               gen, cap):
    # chains from some vertices of these curves take far more than 32
    # rounds to close (over 100 on both), so the default cap leaves them
    # open, and a cap of 1 to 3 leaves most of them open
    verts = iterate(gen, 5)
    eps = construction_rulers(3, 5)[-1]
    if cap is not None:
        monkeypatch.setattr(hyperhelix, "_CHAIN_ROUNDS", cap)
    to, chords = _table(verts, eps)
    monkeypatch.setattr(hyperhelix, "_CHAIN_ROUNDS", 10 ** 4)
    to_uncapped, chords_uncapped = _table(verts, eps)
    closed = to >= 0
    capped = ~closed & (to_uncapped >= 0)
    assert capped.sum() > 0 and closed.sum() > 0
    assert np.array_equal(to[closed], to_uncapped[closed])
    assert np.array_equal(chords[closed], chords_uncapped[closed])
    monkeypatch.undo()
    if cap is not None:
        monkeypatch.setattr(hyperhelix, "_CHAIN_ROUNDS", cap)
    _assert_walks_match([verts], [eps])


def _uneven_walk(seed, n, eps, share):
    """A random walk whose steps are eps long with probability share and
    anywhere from 0.1 eps to 3 eps long otherwise."""
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal((n, 3))
    steps /= np.linalg.norm(steps, axis=1)[:, None]
    length = np.where(rng.random(n) < share, eps,
                      rng.uniform(0.1 * eps, 3.0 * eps, n))
    return np.cumsum(np.vstack((np.zeros(3), steps * length[:, None])),
                     axis=0)


def test_a_walk_with_few_segments_at_the_ruler_length_builds_no_table(
        monkeypatch, tables):
    verts = _uneven_walk(41, 3000, 1.0, 0.3)
    _assert_walks_match([verts], [1.0, 0.5, 2.5])
    assert tables == []
    # with the gate forced open the table serves walks that wander off
    # and back onto vertices at random
    monkeypatch.setattr(hyperhelix, "_CHAIN_SHARE", 0.0)
    for share in (0.3, 0.9):
        _assert_walks_match([_uneven_walk(43, 3000, 1.0, share)],
                            [1.0, 0.5, 2.5])
    assert len(tables) == 12


def test_chain_table_over_zero_length_segments(tables):
    # every fifth vertex repeated: segments of length 0 between chords
    # that land exactly on vertices
    base = iterate(helical_generator(4), 4)
    verts = np.repeat(base, np.where(np.arange(len(base)) % 5 == 2, 2, 1),
                      axis=0)
    assert np.sum(np.all(verts[1:] == verts[:-1], axis=1)) > 1000
    rulers = construction_rulers(3, 4)[-2:]
    _assert_walks_match([verts, verts[:-1]], rulers)
    assert tables == [rulers[-1]] * 4


def test_chain_table_walk_ends_exactly_on_the_last_vertex(tables):
    # binary fractions: every chord lands exactly on the next vertex, the
    # last one on the curve's end, and no leftover chord remains
    verts = iterate(line_generator(2), 6)
    eps = 1.0 / 64.0
    to, chords = _table(verts, eps)
    assert np.array_equal(to, np.arange(1, 65))
    assert np.all(chords == 1)
    assert divider_walk(verts, eps) == 1.0
    _assert_walks_match([verts], [eps])
    assert tables == [eps] * 3


def test_leftover_chord_after_an_open_chain(monkeypatch, tables):
    # eight chords of 1/4 land on vertices; the chain from the last of
    # them runs off the curve's end, leaving a leftover chord of 0.1
    verts = np.zeros((10, 3))
    verts[:9, 0] = np.arange(9) / 4.0
    verts[9] = [2.0, 0.1, 0.0]
    to, _ = _table(verts, 0.25)
    assert np.array_equal(to, [1, 2, 3, 4, 5, 6, 7, 8, -1])
    assert divider_walk(verts, 0.25) == 2.0 + 0.1
    _assert_walks_match([verts], [0.25])
    # chains capped at one round: the walk starts on an open chain and
    # ends past the last landing with a leftover chord
    monkeypatch.setattr(hyperhelix, "_CHAIN_ROUNDS", 1)
    line = iterate(line_generator(), 5)[:200]
    eps = construction_rulers(3, 5)[-1]
    to, _ = _table(line, eps)
    assert to[0] == -1 and np.sum(to >= 0) > 100
    length = divider_walk(line, eps)
    assert length - 199 * eps > 0.0
    _assert_walks_match([line, line[:-3]], [eps])
    assert len(tables) == 8
