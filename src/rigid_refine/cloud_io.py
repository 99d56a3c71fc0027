"""Point-cloud file I/O: ASCII PLY (element vertex, float x/y/z properties)
and one-point-per-line x,y,z CSV. Floats are written with repr precision so
write/read round-trips are exact."""

import numpy as np

from .core import PointCloud


def write_ply(cloud, path):
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {cloud.count}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    lines.extend(f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in cloud.points)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_ply(path):
    with open(path, encoding="utf-8") as f:
        if f.readline().strip() != "ply":
            raise ValueError(f"{path}: not a PLY file")
        if f.readline().strip() != "format ascii 1.0":
            raise ValueError(f"{path}: only ASCII 1.0 PLY is supported")
        count = None
        properties = []
        for line in f:
            fields = line.split()
            if not fields or fields[0] == "comment":
                continue
            if fields[0] == "element":
                if fields[1] != "vertex":
                    raise ValueError(f"{path}: unsupported element {fields[1]!r}")
                count = int(fields[2])
            elif fields[0] == "property":
                properties.append(fields[-1])
            elif fields[0] == "end_header":
                break
            else:
                raise ValueError(f"{path}: unexpected header line {line.strip()!r}")
        if count is None or properties[:3] != ["x", "y", "z"]:
            raise ValueError(f"{path}: need a vertex element with x, y, z properties")
        pts = np.loadtxt(f, dtype=float, max_rows=count, ndmin=2)
    if pts.shape != (count, 3):
        raise ValueError(f"{path}: expected {count} x/y/z rows, got shape {pts.shape}")
    return PointCloud(pts)


def write_xyz_csv(cloud, path):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for x, y, z in cloud.points:
            f.write(f"{x:.17g},{y:.17g},{z:.17g}\n")


def read_xyz_csv(path):
    pts = np.loadtxt(path, dtype=float, delimiter=",", ndmin=2, encoding="utf-8")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{path}: expected x,y,z per line")
    return PointCloud(pts)
