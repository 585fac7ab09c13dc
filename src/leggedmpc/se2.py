"""Planar rigid-transform (SE(2)) primitives.

Poses are length-3 arrays ``(x, y, theta)``; tangent vectors follow the
repo-wide ordering ``(vx, vy, omega)`` with the linear part expressed in the
frame the tangent is attached to (body frame for velocities).  ``exp``/``log``
are the standard SE(2) exponential and logarithm, and ``right_jacobian`` is
the right (body-frame) Jacobian of ``exp``, i.e.

    exp(xi + dxi) ~= compose(exp(xi), exp(right_jacobian(xi) @ dxi))

Angles produced by ``log``/``wrap_angle`` live in (-pi, pi].
"""

from __future__ import annotations

import numpy as np

_SMALL_ANGLE = 1e-8


def wrap_angle(a: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    a = float(a) % (2.0 * np.pi)
    if a > np.pi:
        a -= 2.0 * np.pi
    return a


def rot(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def compose(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Group composition p1 * p2 (apply p2 in the frame of p1)."""
    t = p1[:2] + rot(p1[2]) @ p2[:2]
    return np.array([t[0], t[1], wrap_angle(p1[2] + p2[2])])


def inverse(p: np.ndarray) -> np.ndarray:
    t = -(rot(p[2]).T @ p[:2])
    return np.array([t[0], t[1], wrap_angle(-p[2])])


def act(p: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Map a point from the frame of ``p`` into the parent frame."""
    return p[:2] + rot(p[2]) @ point


def _v_coefficients(theta: float) -> tuple[float, float]:
    """(a, b) of the left Jacobian block V = [[a, -b], [b, a]] of ``exp``."""
    if abs(theta) < _SMALL_ANGLE:
        # second-order series keeps exp/log inverses tight near zero
        return 1.0 - theta * theta / 6.0, 0.5 * theta - theta ** 3 / 24.0
    return np.sin(theta) / theta, (1.0 - np.cos(theta)) / theta


def exp(xi: np.ndarray) -> np.ndarray:
    """SE(2) exponential of a tangent vector (vx, vy, omega)."""
    x, y, theta = (float(c) for c in xi)
    a, b = _v_coefficients(theta)
    return np.array([a * x - b * y, b * x + a * y, wrap_angle(theta)])


def log(p: np.ndarray) -> np.ndarray:
    """SE(2) logarithm; inverse of ``exp`` for angles in (-pi, pi].

    V^-1 = [[a, b], [-b, a]] / (a^2 + b^2) in closed form.
    """
    theta = wrap_angle(p[2])
    a, b = _v_coefficients(theta)
    x, y = float(p[0]), float(p[1])
    d = a * a + b * b
    return np.array([(a * x + b * y) / d, (a * y - b * x) / d, theta])


def adjoint(p: np.ndarray) -> np.ndarray:
    """Adjoint matrix of a pose acting on (vx, vy, omega) tangents."""
    c, s = np.cos(p[2]), np.sin(p[2])
    return np.array(
        [
            [c, -s, p[1]],
            [s, c, -p[0]],
            [0.0, 0.0, 1.0],
        ]
    )


def right_jacobian(xi: np.ndarray) -> np.ndarray:
    """Right Jacobian of ``exp`` at ``xi`` (tangent ordering (vx, vy, omega))."""
    rx, ry, th = (float(c) for c in xi)
    if abs(th) < _SMALL_ANGLE:
        a = 1.0 - th * th / 6.0          # sin(th)/th
        b = 0.5 * th - th ** 3 / 24.0    # (1-cos(th))/th
        j13 = (th / 6.0) * rx - 0.5 * ry + (th * th / 24.0) * ry
        j23 = 0.5 * rx + (th / 6.0) * ry - (th * th / 24.0) * rx
    else:
        a = np.sin(th) / th
        b = (1.0 - np.cos(th)) / th
        j13 = ((1.0 - a) * rx - b * ry) / th
        j23 = (b * rx + (1.0 - a) * ry) / th
    return np.array(
        [
            [a, b, j13],
            [-b, a, j23],
            [0.0, 0.0, 1.0],
        ]
    )


def right_jacobian_inv(xi: np.ndarray) -> np.ndarray:
    return np.linalg.inv(right_jacobian(xi))
