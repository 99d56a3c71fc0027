"""Small SO(3) construction helpers shared across the package.

Angles are radians unless a function name says otherwise. Rotations follow the
right-hand rule about the named axis. The rotation builders take an angle or
an array of angles (a stack of matrices, one per angle).
"""

import numpy as np


def skew(v):
    """Cross-product matrix: skew(v) @ u == np.cross(v, u)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    m = np.zeros(np.shape(c) + (3, 3))
    m[..., 0, 0] = 1.0
    m[..., 1, 1], m[..., 1, 2] = c, -s
    m[..., 2, 1], m[..., 2, 2] = s, c
    return m


def rotation_y(angle):
    c, s = np.cos(angle), np.sin(angle)
    m = np.zeros(np.shape(c) + (3, 3))
    m[..., 0, 0], m[..., 0, 2] = c, s
    m[..., 1, 1] = 1.0
    m[..., 2, 0], m[..., 2, 2] = -s, c
    return m


def rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    m = np.zeros(np.shape(c) + (3, 3))
    m[..., 0, 0], m[..., 0, 1] = c, -s
    m[..., 1, 0], m[..., 1, 1] = s, c
    m[..., 2, 2] = 1.0
    return m


def rotation_zyx(z, y, x, degrees=False):
    """Intrinsic z-y'-x'' composition, i.e. Rz(z) @ Ry(y) @ Rx(x).

    The angles may be arrays of one shape; the result is then a stack of
    matrices of that shape, each as the angles of its lane alone give it.
    """
    if degrees:
        z, y, x = np.radians(z), np.radians(y), np.radians(x)
    return rotation_z(z) @ rotation_y(y) @ rotation_x(x)
