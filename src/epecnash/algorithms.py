"""Equilibrium algorithms for games among Stackelberg leaders.

Three entry points, all sharing the same machinery:

``full_enumeration``
    Enumerate every polyhedral piece of every leader's feasible set,
    lift each union to its convex hull, solve the resulting one-shot
    game of linear players over polytopes, and read a mixed strategy
    off the hull weights.  Finds a mixed equilibrium whenever one
    exists; an empty equilibrium set certifies that none does.

``inner_approximation``
    Grow each leader's hull from a few pieces, solve the restricted
    game, and use profitable deviations against the *true* feasible
    sets to decide which piece to add next.  Falls back to adding
    pieces in a configurable order when the restricted game has no
    equilibrium; its terminal iteration coincides with full enumeration.

``pure_enumeration``
    Same hull game as full enumeration, but the convex weights are
    branched to {0,1}, so any solution lies in an original piece: a
    pure equilibrium, or a proof that no pure equilibrium exists.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
import scipy.sparse as sp

from .leadergame import MultiLeaderGame, leader_feasible_set
from .lp import LpStatus, NumericalFailure
from .nashgame import PolyhedralNashGame, QuadraticPlayer, find_pne, kkt_layout
from .polyhedra import (
    BinaryVar,
    ComplementaritySet,
    Deadline,
    HullFormulation,
    PieceRows,
    Polyhedron,
    TimeLimitReached,
    _single_point_of,
    balas_hull,
    contains,
    enumerate_pieces,
    iter_encodings,
)
from .rng import Lcg
from .tolerances import DELTA_MIN, DEVIATION_TOL, FEAS_TOL

Strategy = Literal["seq", "rseq", "rand"]
STRATEGIES = ("seq", "rseq", "rand")


class DegenerateWeight(ValueError):
    pass


@dataclass(frozen=True)
class MixedProfile:
    """Per leader, a finitely supported distribution over pure points."""

    supports: tuple[tuple[tuple[np.ndarray, float], ...], ...]
    market: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def mean(self, i: int) -> np.ndarray:
        return sum(p * pt for pt, p in self.supports[i])

    def means(self) -> list[np.ndarray]:
        return [self.mean(i) for i in range(len(self.supports))]

    def is_pure(self) -> bool:
        return all(len(s) == 1 for s in self.supports)


@dataclass(frozen=True)
class Deviation:
    leader: int
    improvement: float
    point: np.ndarray | None = None
    ray: np.ndarray | None = None


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.

    ``pieces_per_leader[i]`` is the number of nonempty pieces of leader
    i's feasible set that the solve found.  ``full``, ``pure`` and
    ``inner`` with ``rand`` enumerate every piece, so there it is the
    total; ``inner`` with ``seq``/``rseq`` enumerates lazily and counts
    the pieces its enumeration reached plus those its deviations added.
    A ``TimeLimit`` report keeps the counts reached when the budget ran
    out (0 for a leader whose enumeration had not finished in ``full``
    and ``pure``).
    """

    status: Literal["MNE", "PNE", "NoEquilibrium", "TimeLimit"]
    profile: MixedProfile | None
    iterations: int
    wall_time: float
    pieces_per_leader: tuple[int, ...]
    objective_values: tuple[float, ...] = ()
    trace: tuple = ()


def decompose_mixed(
    lifted: np.ndarray, hull: HullFormulation
) -> list[tuple[np.ndarray, float]]:
    """Convex-combination support implied by a lifted hull point.

    Each copy block with weight above the dust threshold contributes
    the pure point ``copy / weight`` played with that weight;
    probabilities are renormalized to absorb the dropped dust.
    """
    support = []
    total = 0.0
    for j in range(hull.k):
        w = float(lifted[hull.delta_index(j)])
        if w > DELTA_MIN:
            support.append((hull.piece_point(lifted, j), w))
            total += w
    if not support:
        raise DegenerateWeight("all hull weights are numerically zero")
    return [(pt, w / total) for pt, w in support]


@dataclass
class _Assembly:
    game: PolyhedralNashGame
    hulls: list[HullFormulation]
    var_offsets: list[int]
    binaries: tuple[BinaryVar, ...]


def _assemble_hull_game(game: MultiLeaderGame, hulls: list[HullFormulation]) -> _Assembly:
    """One quadratic-free player per leader over its lifted hull polytope."""
    n_l = len(game.leaders)
    n_mkt = game.n_market
    lifted_dims = [h.num_vars for h in hulls]
    offsets = [sum(lifted_dims[:i]) for i in range(n_l)]
    total_lifted = sum(lifted_dims)

    # ambient column -> lifted column: each leader's block lands on its
    # hull's aggregate x, the market prices after every lifted block
    lifted_col = np.concatenate(
        [offsets[j] + hulls[j].agg_slice.start + np.arange(game.ambients[j]) for j in range(n_l)]
        + [total_lifted + np.arange(n_mkt)]
    )

    def lift(src, row0: int, shape) -> sp.csr_matrix:
        block = sp.coo_matrix(src)
        out = sp.csr_matrix(
            (block.data, (block.row + row0, lifted_col[block.col])), shape=shape
        )
        out.eliminate_zeros()
        return out

    players = []
    for i, hull in enumerate(hulls):
        c = np.zeros(hull.num_vars)
        c[hull.agg_slice] = game.objectives[i]
        coupling = None
        if game.couplings[i] is not None:
            coupling = lift(
                game.couplings[i],
                hull.agg_slice.start,
                (hull.num_vars, total_lifted + n_mkt),
            )
        players.append(
            QuadraticPlayer(c=c, a=hull.a, b=hull.b, coupling=coupling)
        )

    clearing = lift(game.clearing, 0, (n_mkt, total_lifted)) if n_mkt else None

    hull_game = PolyhedralNashGame(players=tuple(players), clearing=clearing)
    binaries = []
    for i, hull in enumerate(hulls):
        for j in range(hull.k):
            if hull.points[j] is None:
                copy = hull.copy_slice(j)
                zero_block = tuple(
                    range(offsets[i] + copy.start, offsets[i] + copy.stop)
                )
            else:
                zero_block = ()  # a point contributes delta_j v_j: off is off
            binaries.append(
                BinaryVar(index=offsets[i] + hull.delta_index(j), zero_block=zero_block)
            )
    return _Assembly(
        game=hull_game, hulls=hulls, var_offsets=offsets, binaries=tuple(binaries)
    )


def _embed_selection(asm: _Assembly, game: MultiLeaderGame, selection) -> np.ndarray | None:
    if selection is None:
        return None
    selection = np.asarray(selection, dtype=float)
    if len(selection) != game.total_ambient:
        raise NumericalFailure("selection objective must span all leader blocks")
    c = np.zeros(asm.game.strategy_dim)
    for i, hull in enumerate(asm.hulls):
        block = selection[game.ambient_offset(i) : game.ambient_offset(i) + game.ambients[i]]
        start = asm.var_offsets[i] + hull.agg_slice.start
        c[start : start + game.ambients[i]] = block
    return c


def _decode_profile(
    w: np.ndarray,
    asm: _Assembly,
    sets: list[ComplementaritySet],
) -> MixedProfile:
    lay = kkt_layout(asm.game)
    supports = []
    for i, hull in enumerate(asm.hulls):
        lifted = w[lay.var_slices[i]]
        agg = np.asarray(lifted[hull.agg_slice])
        if contains(sets[i], agg, FEAS_TOL):
            supports.append(((agg, 1.0),))
        else:
            supports.append(tuple(decompose_mixed(lifted, hull)))
    return MixedProfile(supports=tuple(supports), market=lay.market(w))


def _objective_values(game: MultiLeaderGame, profile: MixedProfile) -> tuple[float, ...]:
    means = profile.means()
    return tuple(
        float(game.rival_objective(i, means, profile.market) @ means[i])
        for i in range(len(game.leaders))
    )


def deviation_check(
    game: MultiLeaderGame,
    profile: MixedProfile,
    tol: float = DEVIATION_TOL,
    sets: list[ComplementaritySet] | None = None,
    deadline: Deadline | None = None,
) -> list[Deviation | None]:
    """Per-leader best response against the true feasible set.

    Rivals enter only through their support means: with linear payoffs
    the expected payoff of any reply equals its payoff at the rivals'
    mean, so one exact best response per leader settles whether the
    profile is an equilibrium.  An unbounded best response counts as a
    deviation and carries its ray.
    """
    from .polyhedra import optimize_over_set

    if sets is None:
        sets = [leader_feasible_set(l) for l in game.leaders]
    means = profile.means()
    out: list[Deviation | None] = []
    for i in range(len(game.leaders)):
        obj = game.rival_objective(i, means, profile.market)
        played = float(obj @ means[i])
        br = optimize_over_set(sets[i], obj, deadline=deadline)
        if br.status is LpStatus.UNBOUNDED:
            out.append(Deviation(leader=i, improvement=np.inf, point=br.point, ray=br.ray))
        elif br.status is LpStatus.OPTIMAL:
            gain = played - br.value
            out.append(
                Deviation(leader=i, improvement=gain, point=br.point)
                if gain > tol
                else None
            )
        else:
            raise NumericalFailure(
                f"best response of leader {i} infeasible at a certified profile"
            )
    return out


def _report(status, profile, iterations, deadline, pieces, values=(), trace=()):
    return SolveReport(
        status=status,
        profile=profile,
        iterations=iterations,
        wall_time=deadline.elapsed,
        pieces_per_leader=tuple(pieces),
        objective_values=tuple(values),
        trace=tuple(trace),
    )


def _hull_game(game: MultiLeaderGame, deadline: Deadline, counts: list[int]):
    """Every leader's set and the hull game over all its pieces.

    ``counts[i]`` is set as soon as leader i's pieces are enumerated, so
    a budget cut keeps the counts reached.  None when a set is empty.
    """
    sets = [leader_feasible_set(l) for l in game.leaders]
    pieces = []
    for i, s in enumerate(sets):
        pieces.append(enumerate_pieces(s, deadline=deadline))
        counts[i] = len(pieces[i])
    deadline.check()
    if not all(counts):
        return sets, None
    hulls = [
        balas_hull([poly for _, poly in pc]) for pc in pieces
    ]
    return sets, _assemble_hull_game(game, hulls)


def full_enumeration(
    game: MultiLeaderGame,
    selection: np.ndarray | None = None,
    budget: float | None = None,
) -> SolveReport:
    """Mixed equilibrium by complete piece enumeration and hull lifting."""
    deadline = Deadline(budget)
    counts = [0] * len(game.leaders)
    try:
        sets, asm = _hull_game(game, deadline, counts)
        if asm is None:
            return _report("NoEquilibrium", None, 1, deadline, counts)
        res = find_pne(asm.game, _embed_selection(asm, game, selection), deadline)
        if not res.found:
            return _report("NoEquilibrium", None, 1, deadline, counts)
        profile = _decode_profile(res.point, asm, sets)
        status = "PNE" if profile.is_pure() else "MNE"
        return _report(
            status, profile, 1, deadline, counts, _objective_values(game, profile)
        )
    except TimeLimitReached:
        return _report("TimeLimit", None, 1, deadline, counts)


def pure_enumeration(
    game: MultiLeaderGame,
    selection: np.ndarray | None = None,
    budget: float | None = None,
) -> SolveReport:
    """Pure equilibrium, or proof that none exists, via binary hull weights.

    At a 0-branch the corresponding piece copy is pinned to zero as
    well, so recession directions of switched-off unbounded pieces
    cannot leak into the aggregate: the solution's aggregate block lies
    in the single active piece.
    """
    deadline = Deadline(budget)
    counts = [0] * len(game.leaders)
    try:
        _, asm = _hull_game(game, deadline, counts)
        if asm is None:
            return _report("NoEquilibrium", None, 1, deadline, counts)
        res = find_pne(
            asm.game,
            _embed_selection(asm, game, selection),
            deadline,
            binaries=asm.binaries,
        )
        if not res.found:
            return _report("NoEquilibrium", None, 1, deadline, counts)
        lay = kkt_layout(asm.game)
        supports = []
        for i, hull in enumerate(asm.hulls):
            agg = np.asarray(res.point[lay.var_slices[i]][hull.agg_slice])
            supports.append(((agg, 1.0),))
        profile = MixedProfile(supports=tuple(supports), market=lay.market(res.point))
        return _report(
            "PNE", profile, 1, deadline, counts, _objective_values(game, profile)
        )
    except TimeLimitReached:
        return _report("TimeLimit", None, 1, deadline, counts)


@dataclass
class InnerApproxState:
    """Growing piece selection of one leader during inner approximation.

    ``pending`` yields the encodings of nonempty pieces in the
    strategy's order.  ``included`` holds encodings of nonempty pieces
    only and grows strictly across iterations; a piece's rows and
    single-point test are built once, when it is included.  ``found``
    holds every nonempty encoding seen so far, from ``pending`` or from
    a deviation.
    """

    rows: PieceRows
    pending: Iterator[tuple[int, ...]]
    included: list[tuple[int, ...]] = field(default_factory=list)
    pieces: list[Polyhedron] = field(default_factory=list)
    points: list[np.ndarray | None] = field(default_factory=list)
    found: set[tuple[int, ...]] = field(default_factory=set)
    _next: tuple[int, ...] | None = field(default=None, init=False, repr=False)

    def _fresh(self) -> tuple[int, ...] | None:
        """The next encoding in order that is not included yet."""
        while self._next is None or self._next in self.included:
            self._next = next(self.pending, None)
            if self._next is None:
                return None
            self.found.add(self._next)
        return self._next

    def _include(self, encoding: tuple[int, ...]) -> None:
        piece = self.rows.piece(encoding)
        self.included.append(encoding)
        self.pieces.append(piece)
        self.points.append(_single_point_of(piece))

    @property
    def exhausted(self) -> bool:
        return self._fresh() is None

    def extend(self, count: int) -> int:
        added = 0
        while added < count and self._fresh() is not None:
            self._include(self._next)
            added += 1
        return added

    def add(self, encoding: tuple[int, ...]) -> bool:
        """Include a piece found by a deviation, if nonempty and new."""
        if encoding in self.included or not self.rows.feasible(encoding):
            return False
        self.found.add(encoding)
        self._include(encoding)
        return True

    def hull(self) -> HullFormulation:
        return balas_hull(self.pieces, self.points)


def _inner_state(
    s: ComplementaritySet, strategy: Strategy, rng: Lcg, deadline: Deadline
) -> InnerApproxState:
    """A leader's empty selection, extended in the strategy's order.

    ``seq`` and ``rseq`` enumerate lazily (0-side first and 1-side
    first: the lexicographic order and its reverse); a uniform shuffle
    needs every piece, so ``rand`` enumerates them all up front.
    """
    rows = PieceRows(s)
    if strategy != "rand":
        first = 1 if strategy == "rseq" else 0
        return InnerApproxState(rows, iter_encodings(rows, first, deadline))
    order = list(iter_encodings(rows, 0, deadline))
    rng.shuffle(order)
    return InnerApproxState(rows, iter(order), found=set(order))


def _piece_encoding_at(s: ComplementaritySet, x: np.ndarray) -> tuple[int, ...]:
    """Encoding of a piece containing x: pin the smaller side of each pair."""
    z = s.slacks(x)
    return tuple(1 if x[c] > z[i] else 0 for i, c in enumerate(s.comp))


def inner_approximation(
    game: MultiLeaderGame,
    strategy: Strategy = "seq",
    k: int = 1,
    seed: int = 0,
    budget: float | None = None,
) -> SolveReport:
    """Deviation-guided hull growth.

    Starts each leader from its first k pieces in the strategy's order.
    A restricted equilibrium that survives the deviation check against
    the true sets is returned; a profitable deviation adds a piece
    containing the deviating point; a restricted game with no
    equilibrium extends every leader by k pieces.  Once every piece is
    in, the iteration coincides with full enumeration.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown extension strategy {strategy!r}")
    deadline = Deadline(budget)
    master = Lcg(seed)
    trace: list[dict] = []
    states: list[InnerApproxState] = []

    def counts() -> list[int]:
        found = [len(st.found) for st in states]
        return found + [0] * (len(game.leaders) - len(found))

    try:
        sets = [leader_feasible_set(l) for l in game.leaders]
        for i, s in enumerate(sets):
            states.append(_inner_state(s, strategy, master.split(i), deadline))
        for st in states:
            st.extend(k)
        deadline.check()
        if not all(st.included for st in states):
            return _report("NoEquilibrium", None, 1, deadline, counts())

        iterations = 0
        while True:
            iterations += 1
            deadline.check()
            asm = _assemble_hull_game(game, [st.hull() for st in states])
            res = find_pne(asm.game, None, deadline)

            if not res.found:
                if all(st.exhausted for st in states):
                    trace.append({"restricted": None, "deviations": None})
                    return _report(
                        "NoEquilibrium", None, iterations, deadline, counts(), trace=trace
                    )
                for st in states:
                    st.extend(k)
                trace.append({"restricted": None, "deviations": None})
                continue

            profile = _decode_profile(res.point, asm, sets)
            devs = deviation_check(game, profile, sets=sets, deadline=deadline)
            trace.append({"restricted": profile, "deviations": devs})
            if all(d is None for d in devs):
                status = "PNE" if profile.is_pure() else "MNE"
                return _report(
                    status,
                    profile,
                    iterations,
                    deadline,
                    counts(),
                    _objective_values(game, profile),
                    trace,
                )

            added = False
            for dev in devs:
                if dev is None or dev.point is None:
                    continue
                i = dev.leader
                enc = _piece_encoding_at(sets[i], dev.point)
                if states[i].add(enc):
                    added = True
                elif states[i].extend(1):
                    added = True
            if not added:
                raise NumericalFailure(
                    "deviation found but no piece left to add; tolerances disagree"
                )
    except TimeLimitReached:
        return _report(
            "TimeLimit", None, len(trace) + 1, deadline, counts(), trace=trace
        )
