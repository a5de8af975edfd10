"""Exact distance primitives between points, segments and swept shapes.

All functions broadcast over leading dimensions so the planner can evaluate
whole swarms of arm configurations in one call. Closest-point parameters are
clamped as in Ericson, Real-Time Collision Detection (2004), 5.1.9, and the
distance is the length of the residual w - t d or w + s u - t v, formed from
explicit difference vectors. At contact it cancels exactly: a segment and its
own end point, and segments meeting at a start point or end to start, are 0.0
apart; segments sharing only their far ends (q1 = q2), up to rounding of s, t.
"""

from __future__ import annotations

import numpy as np

_PARALLEL_EPS = 1e-12


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def segment_point_distance(seg_a: np.ndarray, seg_b: np.ndarray,
                           point: np.ndarray) -> np.ndarray:
    """Distance from point(s) to segment(s) [seg_a, seg_b]; broadcasts on (...,3).

    Zero-length segments degrade to the point seg_a.
    """
    seg_a = np.asarray(seg_a, dtype=float)
    seg_b = np.asarray(seg_b, dtype=float)
    point = np.asarray(point, dtype=float)
    d = seg_b - seg_a
    w = point - seg_a
    dd = _dot(d, d)
    t = np.clip(_dot(w, d) / np.where(dd > _PARALLEL_EPS, dd, np.inf), 0.0, 1.0)
    r = w - t[..., None] * d
    return np.sqrt(_dot(r, r))


def segment_segment_distance(p1: np.ndarray, q1: np.ndarray,
                             p2: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Minimum distance between segments [p1,q1] and [p2,q2]; broadcasts on (...,3).

    Closest-point parameters come from the standard clamping cascade (solve
    on the infinite lines, clamp s, recompute and clamp t, recompute s on
    the clamped edge); zero-length segments are reduced explicitly to
    point-segment or point-point distances.
    """
    p1 = np.asarray(p1, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    u = q1 - p1
    v = q2 - p2
    w = p1 - p2
    a = _dot(u, u)
    b = _dot(u, v)
    c = _dot(v, v)
    d = _dot(u, w)
    e = _dot(v, w)

    den = a * c - b * b
    parallel = den < _PARALLEL_EPS
    safe_c = np.where(c > _PARALLEL_EPS, c, 1.0)
    s_num = np.where(parallel, 0.0, b * e - c * d)
    s_den = np.where(parallel, 1.0, den)
    t_num = np.where(parallel, e, a * e - b * d)
    t_den = np.where(parallel, safe_c, den)

    # clamp s to [0, 1]
    s_low = s_num < 0.0
    s_high = s_num > s_den
    s_num = np.clip(s_num, 0.0, s_den)
    t_num = np.where(s_low, e, t_num)
    t_den = np.where(s_low, safe_c, t_den)
    t_num = np.where(s_high, e + b, t_num)
    t_den = np.where(s_high, safe_c, t_den)

    # clamp t to [0, 1], recomputing s on the clamped edge
    t_low = t_num < 0.0
    t_high = t_num > t_den
    safe_a = np.where(a > _PARALLEL_EPS, a, 1.0)
    s = np.where(np.abs(s_num) < _PARALLEL_EPS, 0.0,
                 s_num / np.where(s_den > 0, s_den, 1.0))
    s = np.where(t_low, np.clip(-d, 0.0, safe_a) / safe_a, s)
    s = np.where(t_high, np.clip(-d + b, 0.0, safe_a) / safe_a, s)
    t_num = np.clip(t_num, 0.0, t_den)
    t = np.where(np.abs(t_num) < _PARALLEL_EPS, 0.0,
                 t_num / np.where(t_den > 0, t_den, 1.0))

    # zero-length segments degrade to point-segment / point-point distance
    u_degenerate = a < _PARALLEL_EPS
    v_degenerate = c < _PARALLEL_EPS
    t = np.where(u_degenerate, np.clip(e / safe_c, 0.0, 1.0), t)
    s = np.where(u_degenerate, 0.0, s)
    s = np.where(v_degenerate, np.clip(-d / safe_a, 0.0, 1.0), s)
    t = np.where(v_degenerate, 0.0, t)

    r = w + s[..., None] * u - t[..., None] * v
    return np.sqrt(_dot(r, r))
