import numpy as np
import pytest
from scipy.optimize import minimize

from harvestcell.geometry import segment_point_distance, segment_segment_distance


def _sampled_point_distance(a, b, p, n=20001):
    ts = np.linspace(0.0, 1.0, n)
    pts = a[None, :] + ts[:, None] * (b - a)[None, :]
    return np.linalg.norm(p[None, :] - pts, axis=1).min()


def test_point_distance_exact_cases():
    a = np.zeros(3)
    b = np.array([2.0, 0.0, 0.0])
    assert segment_point_distance(a, b, np.array([1.0, 3.0, 0.0])) == 3.0
    assert segment_point_distance(a, b, np.array([-1.0, 0.0, 0.0])) == 1.0
    assert segment_point_distance(a, b, np.array([5.0, 4.0, 0.0])) == 5.0
    # degenerate segment is the point a
    assert segment_point_distance(a, a, np.array([0.0, 7.0, 0.0])) == 7.0
    # contact: a segment's own end points, at arm scale
    a, b = np.random.default_rng(1).normal(0.0, 0.3, (2, 1000, 3))
    assert np.all(segment_point_distance(a, b, b) == 0.0)
    assert np.all(segment_point_distance(a, b, a) == 0.0)


def test_point_distance_against_sampling():
    rng = np.random.default_rng(2)
    for _ in range(300):
        a, b, p = rng.normal(size=(3, 3))
        got = segment_point_distance(a, b, p)
        ref = _sampled_point_distance(a, b, p)
        assert got <= ref + 1e-9
        assert ref - got < 1e-6


def test_point_distance_broadcasts():
    a = np.zeros((4, 1, 3))
    b = np.zeros((4, 1, 3))
    b[..., 0] = 1.0
    points = np.array([[0.5, 1.0, 0.0], [2.0, 0.0, 0.0]])
    d = segment_point_distance(a, b, points[None, :, :])
    assert d.shape == (4, 2)
    assert np.allclose(d[:, 0], 1.0)
    assert np.allclose(d[:, 1], 1.0)


def _ground_truth_segseg(p1, q1, p2, q2):
    u = q1 - p1
    v = q2 - p2

    def objective(x):
        diff = (p1 + x[0] * u) - (p2 + x[1] * v)
        return diff @ diff

    # |p1 + s u - p2 - t v|^2 is a convex quadratic in (s, t) and the unit
    # box is convex, so every local minimum is global: a few starts (the
    # corners and the centre) guard only against an early stop
    best = np.inf
    for start in ([0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.5, 0.5]):
        res = minimize(objective, start, bounds=[(0, 1), (0, 1)],
                       method="L-BFGS-B",
                       options={"ftol": 1e-18, "gtol": 1e-14})
        best = min(best, res.fun)
    return np.sqrt(best)


def test_segment_distance_against_box_constrained_optimum():
    rng = np.random.default_rng(4)
    for _ in range(40):
        p1, q1, p2, q2 = rng.normal(size=(4, 3))
        got = segment_segment_distance(p1, q1, p2, q2)
        ref = _ground_truth_segseg(p1, q1, p2, q2)
        assert got == pytest.approx(ref, abs=1e-8)


def test_segment_distance_exact_cases():
    z = np.zeros(3)
    ex = np.array([1.0, 0.0, 0.0])
    # parallel offset
    assert segment_segment_distance(
        np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]), z, ex) == 1.0
    # crossing at right angles, vertical gap 2
    assert segment_segment_distance(
        np.array([-1.0, 0.0, 0.0]), ex,
        np.array([0.0, -1.0, 2.0]), np.array([0.0, 1.0, 2.0])) == 2.0
    # collinear, gap 1
    assert segment_segment_distance(
        z, ex, np.array([2.0, 0.0, 0.0]), np.array([3.0, 0.0, 0.0])) == 1.0
    # contact: segments meeting at a start point or end to start, as
    # consecutive links of an arm polyline do
    a, b, c = np.random.default_rng(3).normal(0.0, 0.3, (3, 1000, 3))
    assert np.all(segment_segment_distance(a, b, b, c) == 0.0)
    assert np.all(segment_segment_distance(b, a, c, b) == 0.0)
    assert np.all(segment_segment_distance(a, b, a, c) == 0.0)


def test_segment_distance_degenerate_segments():
    z = np.zeros(3)
    ex = np.array([1.0, 0.0, 0.0])
    # first degenerate: point vs segment
    assert segment_segment_distance(z, z, np.array([2.0, 0.0, 0.0]),
                                    np.array([2.0, 1.0, 0.0])) == 2.0
    # second degenerate: segment vs point beyond the far end
    assert segment_segment_distance(z, ex, np.array([3.0, 0.0, 0.0]),
                                    np.array([3.0, 0.0, 0.0])) == 2.0
    # both degenerate: point-point
    assert segment_segment_distance(z, z, np.array([0.0, 3.0, 0.0]),
                                    np.array([0.0, 3.0, 0.0])) == 3.0
