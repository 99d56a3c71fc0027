"""Brute-force nearest-neighbor reference implementations.

Each function scans every (query, reference) pair through an (N, M, 3)
difference tensor: exact, O(N*M) time and memory. The library's k-d tree
versions must reproduce them bit for bit, ties included.
"""

import numpy as np

from rigid_refine import CorrespondenceSet, estimate_pose_kabsch


def squared_distances(query, ref):
    """(N, M) matrix of elementwise squared distances."""
    return np.sum((query[:, None, :] - ref[None, :, :]) ** 2, axis=2)


def brute_nearest(query, ref):
    """(index, d2): lowest-index nearest reference point and its squared distance."""
    d2 = squared_distances(query, ref)
    return d2.argmin(axis=1), d2.min(axis=1)


def brute_chamfer(a, b):
    d2 = squared_distances(a.points, b.points)
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())


def brute_matching_cost(src, tgt, pose):
    return float(squared_distances(pose.apply(src.points), tgt.points).min(axis=1).mean())


def brute_icp(src, tgt, init, max_iters=50, tol=1e-9):
    """Point-to-point ICP with brute-force matching, same loop as icp_baseline."""
    pose = init
    for _ in range(max_iters):
        index = squared_distances(pose.apply(src.points), tgt.points).argmin(axis=1)
        matched = CorrespondenceSet.from_arrays(src.points, tgt.points[index])
        new_pose = estimate_pose_kabsch(matched)
        change = np.linalg.norm(new_pose.rotation.m - pose.rotation.m) + np.linalg.norm(
            new_pose.translation - pose.translation
        )
        pose = new_pose
        if change < tol:
            break
    return pose
