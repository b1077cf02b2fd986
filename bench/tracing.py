"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install`` replaces the public functions listed in TIMED and COUNTED
with wrappers, in every bernfit module that holds a reference to them, so
calls between modules and within one module are both seen.  A timed call
records a span (name, start, end, parent span, row id) in memory; a counted
call only bumps a counter.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs whose calls become spans
TIMED = (
    ("approx", "project"),
    ("approx", "moments"),
    ("approx", "l2_error"),
    ("approx", "bernstein_operator"),
    ("approx", "p1_interpolant"),
    ("bernstein", "spectral_factors"),
    ("bernstein", "mass_matrix"),
    ("bernstein", "elevation_matrix"),
    ("simplex", "simplex_spectral_factors"),
    ("simplex", "orthogonal_complement_basis"),
    ("simplex", "simplex_mass_matrix"),
    ("simplex", "simplex_basis_values"),
    ("kkt", "solve"),
    ("kkt", "verify_kkt"),
    ("cone", "solve_cone"),
    ("cone", "omega_adjoint"),
    ("cone", "omega_forward"),
)
# called too often, or too cheaply, for a span each
COUNTED = (("cone", "hankel_basis"), ("serialize", "format_float"))
# calls whose arguments are remembered, for the share of repeated calls
KEYED = ("bernstein.spectral_factors", "simplex.simplex_spectral_factors")
# calls whose return values are kept, for the counters they carry
OBSERVED = ("kkt.solve", "kkt.verify_kkt", "cone.solve_cone")

MODULES = ("approx", "bernstein", "simplex", "kkt", "cone", "serialize", "cli")


def _package_modules():
    return [sys.modules[f"bernfit.{m}"] for m in MODULES if f"bernfit.{m}" in sys.modules]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []  # (name id, start, end, parent, row)
        self._stack: list[int] = []
        self.row = -1
        self.counts: Counter = Counter()
        self.results: dict[str, list] = defaultdict(list)
        self._seen: dict[str, set] = defaultdict(set)
        self.repeats: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, nid: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (nid, start, end, parent, self.row)

    @contextlib.contextmanager
    def span(self, name: str, new_row: bool = False):
        """A span of the benchmark's own; new_row starts the next row id."""
        if new_row:
            self.row += 1
        nid = self._name_id(name)
        idx = self._open(nid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, nid, start)

    def _timed(self, name: str, fn):
        nid = self._name_id(name)
        keyed = name in KEYED
        kept = self.results[name] if name in OBSERVED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed:
                key = (args, tuple(sorted(kwargs.items())))
                self.repeats[name] += key in self._seen[name]
                self._seen[name].add(key)
            idx = self._open(nid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid, start)
            if kept is not None:
                kept.append(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = _package_modules()
        for kind, pairs in ((self._timed, TIMED), (self._counted, COUNTED)):
            for mod, fname in pairs:
                original = getattr(sys.modules[f"bernfit.{mod}"], fname)
                wrapper = kind(f"{mod}.{fname}", original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Spans as CSV: name, start and end (seconds), parent span index, row."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,row\n")
            for i, (nid, start, end, parent, row) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{start:.9f},{end:.9f},{parent},{row}\n")

    def busy(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: calls, busy seconds, self seconds (minus direct children)."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for nid, start, end, parent, _ in self.spans:
            calls[nid] += 1
            total[nid] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: defaultdict = defaultdict(float)
        for i, (nid, start, end, _, _) in enumerate(self.spans):
            own[nid] += end - start - child[i]
        name = self.names
        return (
            {name[k]: v for k, v in calls.items()},
            {name[k]: v for k, v in total.items()},
            {name[k]: v for k, v in own.items()},
        )

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        found = 0
        for span in self.spans:
            if span[0] != nid:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != aid:
                parent = self.spans[parent][3]
            found += parent >= 0
        return found
