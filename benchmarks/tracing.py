"""Spans around the solver's layer boundaries, recorded from outside it.

``Tracer.installed()`` replaces each public entry point under the name
through which its caller looks it up (``algorithms.balas_hull``, not
``polyhedra.balas_hull``, because ``algorithms`` imported the name) by a
wrapper that records a span, and puts the originals back on exit.  Spans
stay in memory; ``layer_metrics`` turns them into the per-layer numbers.

A span's self time is its duration minus that of its direct children.
Spans nest strictly (one thread), so the self times of every span under
the solve roots add up to the roots' total duration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import median

from epecnash import algorithms, hotlp, lp, nashgame, polyhedra


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "child_s")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.counts: dict[str, float] = {}
        self.child_s = 0.0
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def add(self, **counts: float) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def owner(self) -> "Span | None":
        """Nearest ancestor outside the LP layers: the layer that asked for an LP."""
        span = self.parent
        while span is not None and span.name.startswith(("hotlp.", "lp.")):
            span = span.parent
        return span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        sp = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if sp.parent is not None:
                sp.parent.child_s += sp.duration
            self.spans.append(sp)

    def _wrap(self, name, fn, on_result):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, args, out)
                return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        tracer = self
        patches = [
            (algorithms, "leader_feasible_set", "leadergame.derive", None),
            (algorithms, "enumerate_pieces", "polyhedra.enum", _enum_counts),
            (algorithms, "balas_hull", "polyhedra.hull", _hull_counts),
            (algorithms, "deviation_check", "algorithms.certify", None),
            (nashgame, "kkt_system", "nashgame.kkt", _kkt_counts),
            (nashgame, "optimize_over_set", "polyhedra.bnb", None),
            (hotlp.RangedLp, "__init__", "hotlp.build", None),
            (hotlp.RangedLp, "solve", "hotlp.solve", _simplex_counts),
            (lp, "solve_lp", "lp.solve", None),
            (polyhedra, "solve_lp", "lp.solve", None),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
        tick = polyhedra.Deadline.tick

        def counted_tick(deadline):
            if tracer._stack:
                tracer._stack[-1].add(nodes=1)
            return tick(deadline)

        try:
            for (owner, attr, name, on_result), (_, _, fn) in zip(patches, saved):
                setattr(owner, attr, self._wrap(name, fn, on_result))
            polyhedra.Deadline.tick = counted_tick
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            polyhedra.Deadline.tick = tick


def _enum_counts(sp, args, pieces):
    sp.add(pieces=len(pieces))


def _hull_counts(sp, args, hull):
    sp.add(pieces=hull.k, points=hull.k - hull.num_copies, nnz=hull.a.nnz)


def _kkt_counts(sp, args, out):
    s = out[0]
    sp.add(
        rows=s.a.shape[0] + s.m_mat.shape[0],
        cols=s.n,
        nnz=s.a.nnz + s.m_mat.nnz,
        pairs=s.num_pairs,
    )


def _simplex_counts(sp, args, out):
    sp.add(iters=args[0]._h.getInfoValue("simplex_iteration_count")[1])


# Every span name that can occur under a solve root; their self times
# are the ``*_s`` layer metrics and add up to ``trace.solve_s``.
SPAN_NAMES = (
    "solve",
    "leadergame.derive",
    "polyhedra.enum",
    "polyhedra.hull",
    "algorithms.certify",
    "nashgame.kkt",
    "polyhedra.bnb",
    "hotlp.build",
    "hotlp.solve",
    "lp.solve",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the spans under the ``solve`` roots.

    Every ``*_s`` layer time is a self time; LP counts are charged to
    the layer that issued the LP; node counts to the innermost span open
    when ``Deadline.tick`` ran.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    lps: dict[str, int] = {}
    solve_s = 0.0
    for sp in spans:
        root = sp
        while root.parent is not None:
            root = root.parent
        if root.name != "solve":
            continue
        if sp is root:
            solve_s += sp.duration
        self_s[sp.name] = self_s.get(sp.name, 0.0) + sp.self_s
        calls[sp.name] = calls.get(sp.name, 0) + 1
        for key, value in sp.counts.items():
            counts[f"{sp.name}.{key}"] = counts.get(f"{sp.name}.{key}", 0) + value
        if sp.name in ("hotlp.solve", "lp.solve"):
            owner = sp.owner()
            lps[owner.name] = lps.get(owner.name, 0) + 1

    def s(name):
        return self_s.get(name, 0.0)

    def c(key):
        return counts.get(key, 0)

    if abs(sum(s(name) for name in SPAN_NAMES) - solve_s) > 1e-6 * max(solve_s, 1.0):
        raise RuntimeError(f"spans outside the known layers: {sorted(set(self_s) - set(SPAN_NAMES))}")
    hotlp_solves = calls.get("hotlp.solve", 0)
    hull_lps = lps.get("polyhedra.hull", 0)
    enum_lps = lps.get("polyhedra.enum", 0)
    bnb_nodes = c("polyhedra.bnb.nodes")
    return {
        "nashgame.kkt_s": s("nashgame.kkt"),
        "nashgame.kkt_rows": c("nashgame.kkt.rows"),
        "nashgame.kkt_cols": c("nashgame.kkt.cols"),
        "nashgame.kkt_nnz": c("nashgame.kkt.nnz"),
        "nashgame.kkt_pairs": c("nashgame.kkt.pairs"),
        "polyhedra.hull_s": s("polyhedra.hull"),
        "polyhedra.hull_lps": hull_lps,
        "polyhedra.hull_lps_per_piece": _ratio(hull_lps, c("polyhedra.hull.pieces")),
        "polyhedra.point_pieces": c("polyhedra.hull.points"),
        "polyhedra.hull_nnz": c("polyhedra.hull.nnz"),
        "polyhedra.enum_s": s("polyhedra.enum"),
        "polyhedra.enum_lps": enum_lps,
        "polyhedra.pieces": c("polyhedra.enum.pieces"),
        "polyhedra.enum_yield": _ratio(c("polyhedra.enum.pieces"), enum_lps),
        "polyhedra.bnb_s": s("polyhedra.bnb"),
        "polyhedra.bnb_nodes": bnb_nodes,
        "polyhedra.bnb_lps_per_node": _ratio(lps.get("polyhedra.bnb", 0), bnb_nodes),
        "hotlp.solves": hotlp_solves,
        "hotlp.solve_s": s("hotlp.solve"),
        "hotlp.ms_per_solve": _ratio(1000.0 * s("hotlp.solve"), hotlp_solves),
        "hotlp.simplex_iters": c("hotlp.solve.iters"),
        "hotlp.builds": calls.get("hotlp.build", 0),
        "hotlp.build_s": s("hotlp.build"),
        "algorithms.certify_s": s("algorithms.certify"),
        "algorithms.certify_nodes": c("algorithms.certify.nodes"),
        "algorithms.iterations": c("solve.iterations"),
        "algorithms.self_s": s("solve"),
        "leadergame.derive_s": s("leadergame.derive"),
        "lp.solves": calls.get("lp.solve", 0),
        "lp.solve_s": s("lp.solve"),
        "trace.solve_s": solve_s,
    }


def root_seconds(spans: list[Span], name: str) -> float:
    """Total duration of the root spans called ``name``."""
    return sum(sp.duration for sp in spans if sp.parent is None and sp.name == name)


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(run[key] for run in runs) for key in runs[0]}
