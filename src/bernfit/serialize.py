"""Text output: the numbers of the CSV tables and the cone certificates.

Every number is written at full %.17g precision.  A cone certificate is a
CSV file of blocks, so an independent script can re-verify it.
"""

from __future__ import annotations

import numpy as np

from .cone import ConePoint


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def save_cone_point(path, point: ConePoint) -> None:
    """Certificate as CSV blocks: a degree line, then each PSD block."""
    with open(path, "w") as fh:
        fh.write(f"degree,{point.m}\n")
        for name, block in (("A", point.A), ("B", point.B)):
            fh.write(f"block,{name},{block.shape[0]}\n")
            for row in block:
                fh.write(",".join(format_float(v) for v in row) + "\n")


def load_cone_point(path) -> ConePoint:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("degree,"):
        raise ValueError("certificate must start with a degree line")
    m = int(lines[0].split(",")[1])
    blocks: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        tag, name, size = lines[i].split(",")
        if tag != "block":
            raise ValueError(f"expected a block line, got {lines[i]!r}")
        size = int(size)
        rows = lines[i + 1 : i + 1 + size]
        blocks[name] = (
            np.array([[float(v) for v in r.split(",")] for r in rows])
            if size
            else np.zeros((0, 0))
        )
        i += 1 + size
    return ConePoint(m=m, A=blocks["A"], B=blocks["B"])
