"""Spans and counters recorded around the program's layer entry points.

The program is not changed: ``patched`` replaces each layer entry point,
under the name its caller looks it up by, with a wrapper that records a
span (name, start, end, parent span, thread) or, for the hot scalar
leaves, only a call count and summed time. Everything is kept in memory
and turned into per-layer metrics after the run.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: tuple
    name: str
    parent: tuple | None
    thread: int
    start: int  # perf_counter_ns, so self times are exact integers
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


class _ThreadState:
    def __init__(self, slot: int):
        self.slot = slot
        self.thread = threading.get_ident()
        self.stack: list = []
        self.spans: list = []
        self.counts: dict = defaultdict(int)


class Tracer:
    """Collects spans and counters; each thread writes only its own state."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.state = st
        return st

    def current(self):
        st = self._state()
        return st.stack[-1] if st.stack else None

    def add(self, name: str, value: float) -> None:
        self._state().counts[name] += value

    def span(self, name: str, fn, parent=None):
        """Wrap fn so each call records a span; parent defaults to the
        innermost open span on the calling thread."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            sid = (st.slot, len(st.spans))
            up = parent if parent is not None else (st.stack[-1] if st.stack else None)
            st.spans.append(None)
            st.stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                st.stack.pop()
                st.spans[sid[1]] = Span(sid, name, up, st.thread, start, end)

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot scalar function: count calls and sum time, no span."""
        calls, total = name + ".calls", name + ".time_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state().counts
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[total] += (time.perf_counter_ns() - start) * 1e-9
                counts[calls] += 1

        return wrapper

    def spans(self) -> list:
        return [s for st in self._states for s in st.spans if s is not None]

    def counts(self) -> dict:
        out: dict = defaultdict(int)
        for st in self._states:
            for key, value in st.counts.items():
                out[key] += value
        return out


class _IntegrateProxy:
    """Stands in for ``renorm.integrate`` so only renorm's quadratures are traced."""

    def __init__(self, tracer: Tracer, integrate):
        self._integrate = integrate
        self.quad = tracer.span("renorm.quad", integrate.quad)
        self.dblquad = tracer.span("renorm.dblquad", integrate.dblquad)

    def __getattr__(self, name):
        return getattr(self._integrate, name)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install tracing wrappers on the package's layer entry points."""
    from dipole_loop import cli, jc, nr, renorm

    replaced = []

    def put(owner, attr, value):
        replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def span(owner, attr, name):
        put(owner, attr, tracer.span(name, getattr(owner, attr)))

    def write_csv(orig):
        def wrapper(path, cfg, command, header, rows):
            orig(path, cfg, command, header, rows)
            tracer.add("cli.rows", len(rows))
            tracer.add("cli.write_csv.bytes", os.path.getsize(path))

        return tracer.span("cli.write_csv", wrapper)

    def pmap(orig):
        # sweep points run on pool threads; their spans name the pool
        # span on the calling thread as parent
        def wrapper(fn, items):
            return orig(tracer.span("cli.pool.item", fn, parent=tracer.current()), items)

        return tracer.span("cli.pool", wrapper)

    try:
        span(cli, "parse_config", "cli.parse_config")
        span(cli, "_physics", "cli.physics")
        put(cli, "_write_csv", write_csv(cli._write_csv))
        put(cli, "_pmap", pmap(cli._pmap))
        put(cli, "_HANDLERS", {c: tracer.span("cli.handler", fn) for c, fn in cli._HANDLERS.items()})
        for fn in ("self_energy", "wavefunction_Z", "vertex_one_loop", "photon_polarization",
                   "counterterm_report"):
            span(renorm, fn, "renorm." + fn)
        put(renorm, "integrate", _IntegrateProxy(tracer, renorm.integrate))
        for owner in (renorm, cli):
            put(owner, "master_integral", tracer.leaf("loops.master_integral", owner.master_integral))
        put(renorm, "master_integral_d_scale",
            tracer.leaf("loops.master_integral_d_scale", renorm.master_integral_d_scale))
        for fn in ("radial_quadrature", "feynman_identity_check", "symmetric_integration_check"):
            span(cli, fn, "loops." + fn)
        for fn in ("build_hamiltonian", "evolve", "measure_resonant_period"):
            span(jc, fn, "jc." + fn)
        for fn in ("decoupling_residual", "reduced_block_error", "similarity_transform"):
            span(nr, fn, "nr." + fn)
        yield tracer
    finally:
        for owner, attr, value in reversed(replaced):
            setattr(owner, attr, value)


def span_totals(spans: list) -> dict:
    """Per span name: calls, summed duration and summed self time.

    Self time is a span's duration minus the durations of its direct
    children on the same thread (children on other threads run in
    parallel with it and are not subtracted).
    """
    child_time: dict = defaultdict(int)
    by_id = {s.sid: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            child_time[s.parent] += s.duration
    totals: dict = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0, "min_self_s": float("inf")})
    for s in spans:
        t = totals[s.name]
        self_s = (s.duration - child_time[s.sid]) * 1e-9
        t["calls"] += 1
        t["time_s"] += s.duration * 1e-9
        t["self_s"] += self_s
        t["min_self_s"] = min(t["min_self_s"], self_s)
    return dict(totals)


def pool_busy_over_wall(spans: list) -> float:
    """Summed pool-item span time over the wall time of the handlers that ran a pool."""
    by_id = {s.sid: s for s in spans}
    pools = {s.sid: s for s in spans if s.name == "cli.pool"}
    handlers = {pools[p].parent for p in pools}
    wall = sum(by_id[h].duration for h in handlers if h in by_id)
    busy = sum(s.duration for s in spans if s.name == "cli.pool.item")
    return busy / wall if wall > 0 else 0.0


def parse_importtime(stderr: str, modules: tuple) -> dict:
    """Cumulative import seconds per module from ``python -X importtime``.

    A module imported through importlib (scipy's lazy submodules) has no
    line of its own; it is then the sum of its top-most submodule lines.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip())) // 2
        entries.append((level, name.strip(), int(parts[1]) * 1e-6))
    # importtime prints a module after its children: the parent of entry
    # i is the next entry at a lower level
    parent = [None] * len(entries)
    open_children: list = []
    for i, (level, _, _) in enumerate(entries):
        while open_children and entries[open_children[-1]][0] > level:
            parent[open_children.pop()] = i
        open_children.append(i)

    def within(name: str, module: str) -> bool:
        return name == module or name.startswith(module + ".")

    out = {}
    for module in modules:
        own = [cum for _, name, cum in entries if name == module]
        if own:
            out[module] = own[0]
            continue
        total = 0.0
        for i, (_, name, cum) in enumerate(entries):
            if not within(name, module):
                continue
            p = parent[i]
            while p is not None and not within(entries[p][1], module):
                p = parent[p]
            if p is None:
                total += cum
        out[module] = total
    return out
