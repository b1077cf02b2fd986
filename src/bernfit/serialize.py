"""Text serialization for fixtures and debugging.

Matrices go to CSV, row-major, full %.17g precision.  Problem and solution
records use a line-oriented key=value format.  Cone certificates are CSV
blocks so an independent script can re-verify them.
"""

from __future__ import annotations

import io

import numpy as np

from .cone import ConePoint
from .kkt import KktProblem, KktSolution
from .simplex import multiindices


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def matrix_to_csv(M, header: list[str] | None = None) -> str:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    out = io.StringIO()
    if header is not None:
        out.write(",".join(header) + "\n")
    for row in M:
        out.write(",".join(format_float(v) for v in row) + "\n")
    return out.getvalue()


def save_matrix_csv(path, M, header: list[str] | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(matrix_to_csv(M, header))


def matrix_from_csv(text: str, skip_header: bool = False) -> np.ndarray:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if skip_header:
        lines = lines[1:]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines])


def load_matrix_csv(path, skip_header: bool = False) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_csv(fh.read(), skip_header=skip_header)


def multiindex_header(d: int, n: int) -> list[str]:
    """Column labels spelling out the canonical multiindex order."""
    return ["a" + "_".join(str(i) for i in alpha) for alpha in multiindices(d, n)]


def _record_lines(pairs) -> str:
    return "".join(f"{k}={v}\n" for k, v in pairs)


def _vector_str(v) -> str:
    return " ".join(format_float(x) for x in np.atleast_1d(v))


def problem_to_record(p: KktProblem) -> str:
    pairs = [
        ("kind", "kkt_problem"),
        ("dim", p.dim),
        ("m", p.m),
        ("n", p.n),
        ("delta", p.delta),
        ("target", _vector_str(p.target)),
    ]
    return _record_lines(pairs)


def _parse_record(text: str) -> dict[str, str]:
    rec = {}
    for ln in text.strip().splitlines():
        if not ln.strip():
            continue
        key, _, value = ln.partition("=")
        rec[key.strip()] = value.strip()
    return rec


def problem_from_record(text: str) -> KktProblem:
    rec = _parse_record(text)
    if rec.get("kind") != "kkt_problem":
        raise ValueError(f"not a kkt_problem record: kind={rec.get('kind')!r}")
    if "upper" in rec:
        raise ValueError("kkt_problem records carry no upper bound; "
                         "pass it to oracles.penalty_solve instead")
    return KktProblem(
        dim=int(rec["dim"]),
        m=int(rec["m"]),
        n=int(rec["n"]),
        target=np.array([float(v) for v in rec["target"].split()]),
        delta=int(rec["delta"]),
    )


# Diagnostics keys in their fixed printing order.
SOLUTION_FIELDS = (
    "stationarity_residual",
    "min_elevated",
    "max_slack_violation",
    "subsets_examined",
    "systems_solved",
    "candidates_reconstructed",
    "rank_skips",
)


def solution_to_record(s: KktSolution) -> str:
    pairs = [
        ("kind", "kkt_solution"),
        ("q", _vector_str(s.q.coeffs)),
        ("mu", _vector_str(s.mu)),
        ("nu", format_float(s.nu)),
        ("active_set", " ".join(str(i) for i in s.active_set)),
        ("elevated", _vector_str(s.elevated)),
    ]
    for name in SOLUTION_FIELDS:
        value = getattr(s, name)
        pairs.append(
            (name, format_float(value) if isinstance(value, float) else str(value))
        )
    return _record_lines(pairs)


def solution_summary(s: KktSolution) -> str:
    """One fixed-order diagnostics line, for logs."""
    cells = [f"J={list(s.active_set)}"]
    for name in SOLUTION_FIELDS:
        value = getattr(s, name)
        cells.append(
            f"{name}={format_float(value) if isinstance(value, float) else value}"
        )
    return " ".join(cells)


def cone_point_to_csv(point: ConePoint) -> str:
    """Certificate as CSV blocks: a degree line, then each PSD block."""
    out = io.StringIO()
    out.write(f"degree,{point.m}\n")
    out.write(f"block,A,{point.A.shape[0]}\n")
    out.write(matrix_to_csv(point.A) if point.A.size else "")
    out.write(f"block,B,{point.B.shape[0]}\n")
    out.write(matrix_to_csv(point.B) if point.B.size else "")
    return out.getvalue()


def cone_point_from_csv(text: str) -> ConePoint:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
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


def save_cone_point(path, point: ConePoint) -> None:
    with open(path, "w") as fh:
        fh.write(cone_point_to_csv(point))


def load_cone_point(path) -> ConePoint:
    with open(path) as fh:
        return cone_point_from_csv(fh.read())
