"""Planar rigid-transform (SE(2)) primitives.

Poses are length-3 arrays ``(x, y, theta)``; tangent vectors follow the
repo-wide ordering ``(vx, vy, omega)`` with the linear part expressed in the
frame the tangent is attached to (body frame for velocities).  ``exp``/``log``
are the standard SE(2) exponential and logarithm, and ``right_jacobian`` is
the right (body-frame) Jacobian of ``exp``, i.e.

    exp(xi + dxi) ~= compose(exp(xi), exp(right_jacobian(xi) @ dxi))

Angles produced by ``log``/``wrap_angle`` live in (-pi, pi].  Every function
takes leading batch axes: a stack of poses has shape (..., 3), and each
operation acts on each pose of the stack alone, and one pose gives the bits
of its row of a stack.

These maps run many times per solver step, so they call numpy's kernels
directly: results are assembled in one preallocated array, shapes are read
off the arrays, and ``right_jacobian_inv`` calls the LAPACK gufunc of
``np.linalg.inv`` (``_kernels``), with ``np.linalg``'s bits.  scipy's
LAPACK is not bit-equal to it.

``model.integrate_q`` and ``difference_q`` run one pose on Python floats
(``_exp1``, ``_compose1``, ``_inverse1``, ``_log1`` and ``_wrap1``, which
take and return tuples), so each operation is one interpreter step instead
of a numpy scalar or array call.  ``+ - * / %`` and ``**`` on floats are
the IEEE operations numpy's scalars run, with the same bits.  Cosine and
sine stay ``np.cos``/``np.sin``, called on the float: that is the ufunc
the array path calls, so a pose keeps the bits of its row of a stack also
on a numpy build whose vectorized sin and cos differ from the C library's
(``math.cos`` is the C library's).  The one operation that can round
differently between a pose and its row is the cube of the series branch
(|theta| < 1e-8): an array's ``**`` need not round as ``pow`` does, but
the cube lies below the rounding of ``0.5 theta - theta^3 / 24``, so the
coefficient keeps its bits (``tests/test_se2.py`` pins this on 10,000
poses).
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels

_SMALL_ANGLE = 1e-8
_TWO_PI = np.float64(2.0 * np.pi)
_TWO_PI_F = float(_TWO_PI)


def wrap_angle(a):
    """Wrap angles to the half-open interval (-pi, pi]."""
    a = a % _TWO_PI
    return a - _TWO_PI * (a > np.pi)


# ---- one pose on Python floats (module docstring) ------------------------

def _wrap1(a: float) -> float:
    a = a % _TWO_PI_F
    return a - _TWO_PI_F * (a > math.pi)


def _cos_sin(theta: float) -> tuple[float, float]:
    return float(np.cos(theta)), float(np.sin(theta))


def _coefficients1(theta: float) -> tuple[float, float]:
    """``_v_coefficients`` of one angle."""
    if abs(theta) < _SMALL_ANGLE:
        return 1.0 - theta * theta / 6.0, 0.5 * theta - theta ** 3 / 24.0
    c, s = _cos_sin(theta)
    return s / theta, (1.0 - c) / theta


def _exp1(x: float, y: float, theta: float) -> tuple:
    a, b = _coefficients1(theta)
    return a * x - b * y, b * x + a * y, _wrap1(theta)


def _compose1(p1, p2) -> tuple:
    (x1, y1, th1), (x2, y2, th2) = p1, p2
    c, s = _cos_sin(th1)
    return x1 + (c * x2 - s * y2), y1 + (s * x2 + c * y2), _wrap1(th1 + th2)


def _inverse1(x: float, y: float, theta: float) -> tuple:
    c, s = _cos_sin(theta)
    return -(c * x + s * y), s * x - c * y, _wrap1(-theta)


def _log1(x: float, y: float, theta: float) -> tuple:
    theta = _wrap1(theta)
    a, b = _coefficients1(theta)
    d = a * a + b * b
    return (a * x + b * y) / d, (a * y - b * x) / d, _wrap1(theta)


# ---- the array path --------------------------------------------------------

def _split(p):
    """The three components of poses or tangents (..., 3); scalars for one."""
    p = np.asarray(p, dtype=float)
    return (p[0], p[1], p[2]) if p.ndim == 1 else (p[..., 0], p[..., 1], p[..., 2])


def _assemble(parts, shape) -> np.ndarray:
    """Array of ``shape`` plus a last axis holding ``parts`` (each broadcast)."""
    if not shape:
        return np.array(parts, dtype=float)
    out = np.empty(shape + (len(parts),))
    for i, part in enumerate(parts):
        out[..., i] = part
    return out


def _pose(x, y, theta) -> np.ndarray:
    theta = wrap_angle(theta)
    return _assemble((x, y, theta), theta.shape)


def _affine(r0, r1) -> np.ndarray:
    """3x3 matrices with first rows r0, r1 (triples of arrays of one shape)
    and (0, 0, 1)."""
    shape = r0[0].shape
    return _assemble((*r0, *r1, 0.0, 0.0, 1.0), shape).reshape(shape + (3, 3))


def rot(theta) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return _assemble((c, -s, s, c), c.shape).reshape(c.shape + (2, 2))


def _act(p, px, py):
    """Coordinates in the parent frame of the point (px, py) of the frame ``p``."""
    x, y, th = _split(p)
    c, s = np.cos(th), np.sin(th)
    return x + (c * px - s * py), y + (s * px + c * py), th


def compose(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Group composition p1 * p2 (apply p2 in the frame of p1)."""
    x2, y2, th2 = _split(p2)
    x, y, th = _act(p1, x2, y2)
    return _pose(x, y, th + th2)


def inverse(p: np.ndarray) -> np.ndarray:
    x, y, th = _split(p)
    c, s = np.cos(th), np.sin(th)
    return _pose(-(c * x + s * y), s * x - c * y, -th)


def act(p: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Map a point from the frame of ``p`` into the parent frame."""
    point = np.asarray(point, dtype=float)
    x, y, th = _act(p, point[..., 0], point[..., 1])
    return _assemble((x, y), x.shape)


def _small(theta):
    """Angles that take the series forms: None for none, True for all, else a mask."""
    small = abs(theta) < _SMALL_ANGLE
    if not small.ndim:
        return True if small else None
    return small if np.count_nonzero(small) else None


def _pick(small, theta, series, exact):
    """``series()`` where ``small`` (see ``_small``) holds, else ``exact(theta)``.

    Each form is computed only when some angle takes it.  ``exact`` may
    divide by its argument: the small angles reach it as 1.
    """
    if small is None:
        return exact(theta)
    if small is True:
        return series()
    return np.where(small, series(), exact(np.where(small, 1.0, theta)))


def _v_coefficients(theta, small):
    """(a, b) of the left Jacobian block V = [[a, -b], [b, a]] of ``exp``."""
    # second-order series near zero keeps exp/log inverses tight
    return (_pick(small, theta, lambda: 1.0 - theta * theta / 6.0,
                  lambda t: np.sin(t) / t),
            _pick(small, theta, lambda: 0.5 * theta - theta ** 3 / 24.0,
                  lambda t: (1.0 - np.cos(t)) / t))


def exp(xi: np.ndarray) -> np.ndarray:
    """SE(2) exponential of a tangent vector (vx, vy, omega)."""
    x, y, theta = _split(xi)
    a, b = _v_coefficients(theta, _small(theta))
    return _pose(a * x - b * y, b * x + a * y, theta)


def log(p: np.ndarray) -> np.ndarray:
    """SE(2) logarithm; inverse of ``exp`` for angles in (-pi, pi].

    V^-1 = [[a, b], [-b, a]] / (a^2 + b^2) in closed form.
    """
    x, y, theta = _split(p)
    theta = wrap_angle(theta)
    a, b = _v_coefficients(theta, _small(theta))
    d = a * a + b * b
    return _pose((a * x + b * y) / d, (a * y - b * x) / d, theta)


def adjoint(p: np.ndarray) -> np.ndarray:
    """Adjoint matrix of a pose acting on (vx, vy, omega) tangents."""
    x, y, th = _split(p)
    c, s = np.cos(th), np.sin(th)
    return _affine((c, -s, y), (s, c, -x))


def right_jacobian(xi: np.ndarray) -> np.ndarray:
    """Right Jacobian of ``exp`` at ``xi`` (tangent ordering (vx, vy, omega))."""
    rx, ry, th = _split(xi)
    small = _small(th)
    a, b = _v_coefficients(th, small)
    j13 = _pick(small, th, lambda: (th / 6.0) * rx - 0.5 * ry + (th * th / 24.0) * ry,
                lambda t: ((1.0 - a) * rx - b * ry) / t)
    j23 = _pick(small, th, lambda: 0.5 * rx + (th / 6.0) * ry - (th * th / 24.0) * rx,
                lambda t: (b * rx + (1.0 - a) * ry) / t)
    return _affine((a, b, j13), (-b, a, j23))


def right_jacobian_inv(xi: np.ndarray) -> np.ndarray:
    return _kernels.inv(right_jacobian(xi))
