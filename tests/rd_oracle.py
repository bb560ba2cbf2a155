"""Brute-force oracles for the closed forms of clp.rd_math.

A dense grid over the joint's one free parameter a = P(X=1,Y=1), plus
bisection on the sign of dI/da, minimizes I(X;Y) without using the
closed form.  Slow; only the tests call it.
"""

import numpy as np

from clp.errors import Infeasible
from clp.rd_math import _FEAS_EPS, SourceModel, _dval, _feasible_interval, _pval


def _np_plogp(c: np.ndarray) -> np.ndarray:
    c = np.maximum(c, 0.0)
    return np.where(c > 0.0, c * np.log2(np.where(c > 0.0, c, 1.0)), 0.0)


def _info_at(a: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # I = H(X) + H(Y) - H(X,Y); sum of c log c gives -H per group
    out = _np_plogp(a) + _np_plogp(p - a) + _np_plogp(q - a) + _np_plogp(1.0 - p - q + a)
    for m in (p, q):
        out -= _np_plogp(np.clip(m, 0.0, 1.0)) + _np_plogp(np.clip(1.0 - m, 0.0, 1.0))
    return np.maximum(out, 0.0)


def _deriv_sign(a, p, q):
    """Sign of dI/da = log[a(1-p-q+a)] - log[(p-a)(q-a)], cell-safe."""
    tiny = 1e-300
    up = np.log(np.maximum(a, tiny)) + np.log(np.maximum(1.0 - p - q + a, tiny))
    dn = np.log(np.maximum(p - a, tiny)) + np.log(np.maximum(q - a, tiny))
    return up - dn


def lower_mutual_info_oracle(q, src, dist, grid_points: int = 1 << 20) -> float:
    """Brute-force check of lower_mutual_info: dense grid over the free
    parameter plus bisection refinement on the derivative."""
    qv = _pval(q) if isinstance(q, SourceModel) else float(q)
    p = _pval(src)
    d = _dval(dist)
    if abs(p - qv) > d + _FEAS_EPS:
        raise Infeasible(f"|p - q| = {abs(p - qv):.6g} exceeds D = {d:.6g}")
    lo, hi = _feasible_interval(qv, p, d)
    if hi - lo <= 0.0:
        return float(_info_at(np.array(lo), np.array(p), np.array(qv)))
    grid = np.linspace(lo, hi, grid_points)
    vals = _info_at(grid, np.array(p), np.array(qv))
    best = float(vals.min())
    a_lo, a_hi = lo, hi
    if _deriv_sign(np.array(a_lo), p, qv) >= 0.0:
        a_star = a_lo
    elif _deriv_sign(np.array(a_hi), p, qv) <= 0.0:
        a_star = a_hi
    else:
        for _ in range(200):
            mid = 0.5 * (a_lo + a_hi)
            if _deriv_sign(np.array(mid), p, qv) > 0.0:
                a_hi = mid
            else:
                a_lo = mid
        a_star = 0.5 * (a_lo + a_hi)
    refined = float(_info_at(np.array(a_star), np.array(p), np.array(qv)))
    return min(best, refined)


def lower_mutual_info_oracle_batch(qs, ps, ds, grid_points: int = 257) -> np.ndarray:
    """Vectorized variant of the grid oracle for large (q, p, D) batches.

    Same method, grid scan plus derivative bisection, broadcast across
    inputs so acceptance-scale sweeps stay fast.  All triples must be
    feasible.
    """
    q = np.asarray(qs, dtype=float)
    p = np.asarray(ps, dtype=float)
    d = np.asarray(ds, dtype=float)
    if np.any(np.abs(p - q) > d + _FEAS_EPS):
        raise Infeasible("batch contains an infeasible (q, p, D) triple")
    lo = np.maximum(np.maximum(0.0, p + q - 1.0), (p + q - d) / 2.0)
    hi = np.minimum(p, q)
    lo = np.minimum(lo, hi)
    t = np.linspace(0.0, 1.0, grid_points)[:, None]
    grid = lo[None, :] + t * (hi - lo)[None, :]
    best = _info_at(grid, p[None, :], q[None, :]).min(axis=0)
    a_lo, a_hi = lo.copy(), hi.copy()
    sign_lo = _deriv_sign(a_lo, p, q)
    sign_hi = _deriv_sign(a_hi, p, q)
    at_lo = sign_lo >= 0.0
    at_hi = sign_hi <= 0.0
    interior = ~(at_lo | at_hi)
    for _ in range(80):
        mid = 0.5 * (a_lo + a_hi)
        go_right = _deriv_sign(mid, p, q) <= 0.0
        a_lo = np.where(interior & go_right, mid, a_lo)
        a_hi = np.where(interior & ~go_right, mid, a_hi)
    a_star = np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (a_lo + a_hi)))
    refined = _info_at(a_star, p, q)
    return np.minimum(best, refined)
