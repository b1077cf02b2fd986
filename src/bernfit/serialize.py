"""Text output: the numbers of the CSV tables and the cone certificates.

Every number is written at full %.17g precision.  A cone certificate is a
CSV file of blocks, so an independent script can re-verify it.
"""

from __future__ import annotations

import math

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


def _row(k: int, line: str, name: str, size: int) -> list[float]:
    """Line k of a certificate as a row of block name: size finite numbers."""
    try:
        values = [float(v) for v in line.split(",")]
    except ValueError:
        values = []
    if len(values) != size:
        raise ValueError(f"line {k}: not a row of {size} numbers in block {name}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"line {k}: block {name} has an entry that is not finite")
    return values


def load_cone_point(path) -> ConePoint:
    """Read a certificate written by save_cone_point.

    The file comes from outside the program, so a block that is missing,
    repeated or cut short, a line that is not a row of its block and an
    entry that is not finite each raise ValueError naming the block or line.
    """
    with open(path) as fh:
        lines = [(k, ln.strip()) for k, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("degree,"):
        raise ValueError("certificate must start with a degree line")
    m = int(lines[0][1].split(",")[1])
    blocks: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        k, line = lines[i]
        head = line.split(",")
        if len(head) != 3 or head[0] != "block" or head[1] not in ("A", "B"):
            raise ValueError(f"line {k}: expected a block line for A or B, got {line!r}")
        name, size = head[1], int(head[2])
        if name in blocks:
            raise ValueError(f"line {k}: block {name} is repeated")
        rows = lines[i + 1 : i + 1 + size]
        if len(rows) < size:
            raise ValueError(f"block {name} is cut short: {len(rows)} of its {size} rows")
        blocks[name] = np.array([_row(k, row, name, size) for k, row in rows]).reshape(size, size)
        i += 1 + size
    for name in ("A", "B"):
        if name not in blocks:
            raise ValueError(f"certificate has no block {name}")
    return ConePoint(m=m, A=blocks["A"], B=blocks["B"])
