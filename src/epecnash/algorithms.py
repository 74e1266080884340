"""Equilibrium algorithms for games among Stackelberg leaders.

Three entry points over one pipeline: each leader's pieces enter its
hull through one ``LeaderPieces`` selection, and one step solves and
decodes the hull game.  When the leaders meet only through the market
price (every energy game), that game's equilibria are the optimal
primal-dual pairs of one planner LP.  ``full`` and ``inner`` grow their
hulls a few pieces at a time, so they keep that LP for the whole solve
as a ``RestrictedPlanner`` and add each included piece's columns and
rows in place; ``full`` with a selection then goes on pricing on it
under the selection over its optima; ``pure`` grows it, for the
planner's optimal value and prices, and then searches the leaders' own
sets side by side.  The hull games of a game whose leaders meet
through each other's strategies, and the one-shot hull game of ``pure``
on such a game, are lifted, assembled and searched by ``find_pne``.

``full_enumeration``
    Enumerate every polyhedral piece of every leader's feasible set,
    lift the unions to their convex hulls, solve the resulting game of
    linear players over polytopes, and read a mixed strategy off the
    hull weights.  The hull game is solved by column generation over
    the enumerated pieces: restricted hulls grow by the pieces that
    beat a restricted equilibrium, until none does, and a restricted
    game without equilibrium takes every piece.  Finds a mixed
    equilibrium whenever one exists; an empty equilibrium set of the
    hull game over every piece certifies that none does.

``inner_approximation``
    Grow each leader's hull from a few pieces, solve the restricted
    game, and use profitable deviations against the *true* feasible
    sets to decide which piece to add next.  Falls back to adding
    pieces in a configurable order when the restricted game has no
    equilibrium; its terminal iteration coincides with full enumeration.
    It runs full enumeration's loop (``_grow``) with another pricing
    step and fallback; each leader's best responses search its set's one
    relaxation model (``PieceRows.lp``), kept for the whole solve.

``pure_enumeration``
    A pure equilibrium, or a proof that none exists.  On a market game:
    an optimal point of the hull game's planner LP whose every block lies
    in its leader's true set, found by one search over those sets side
    by side.  On any other game: the hull game with its convex weights
    branched to {0,1}, so any solution lies in an original piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Literal

import numpy as np

from .hotlp import INF, RangedLp, SparseMatrix, triplets
from .leadergame import MultiLeaderGame, leader_feasible_set
from .lp import LpError, LpStatus, NumericalFailure
from .nashgame import PolyhedralNashGame, QuadraticPlayer, find_pne
from .polyhedra import (
    BinaryVar,
    ComplementaritySet,
    Deadline,
    HullFormulation,
    HullLayout,
    PieceRows,
    TimeLimitReached,
    Triplets,
    balas_hull,
    contains,
    enumerate_pieces,
    iter_encodings,
    optimize_over_set,
    piece_block,
)
from .rng import Lcg
from .tolerances import DELTA_MIN, DEVIATION_TOL, FEAS_TOL, PLANNER_SLACK, REPORT_TOL

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
    i's feasible set that the solve found.  ``full``, ``inner`` with
    ``rand`` and ``pure`` on a game that is not a market game enumerate
    every piece, so there it is the total; ``inner`` with ``seq``/``rseq``
    and ``pure`` on a market game enumerate lazily and count the pieces
    their enumeration reached plus those their deviations added.  A
    ``TimeLimit`` report keeps the counts reached when the budget ran out
    (0 for a leader whose up-front enumeration had not finished).
    ``iterations`` counts the restricted hull games solved before a
    selection's phase 2: 1 for a one-shot hull game.
    """

    status: Literal["MNE", "PNE", "NoEquilibrium", "TimeLimit"]
    profile: MixedProfile | None
    iterations: int
    wall_time: float
    pieces_per_leader: tuple[int, ...]
    objective_values: tuple[float, ...] = ()
    trace: tuple = ()


def decompose_mixed(lifted: np.ndarray, hull: HullLayout) -> list[tuple[np.ndarray, float]]:
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
    lifted_col: np.ndarray  # ambient column -> hull-game column
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

    def lift(src, row0: int, shape) -> SparseMatrix:
        rows, cols, vals = triplets(src)
        out = Triplets()
        out.add(rows + row0, lifted_col[cols], vals)
        return out.matrix(shape)

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
            QuadraticPlayer(
                c=c, a=hull.a, b=np.zeros(hull.a.shape[0]), coupling=coupling,
                a_eq=hull.a_eq, b_eq=hull.b_eq,
            )
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
    return _Assembly(game=hull_game, lifted_col=lifted_col, binaries=tuple(binaries))


def _check_selection(game: MultiLeaderGame, selection) -> None:
    if selection is not None and len(selection) != game.total_ambient:
        raise NumericalFailure("selection objective must span all leader blocks")


def _embed_selection(asm: _Assembly, game: MultiLeaderGame, selection) -> np.ndarray | None:
    if selection is None:
        return None
    c = np.zeros(asm.game.strategy_dim)
    c[asm.lifted_col[: game.total_ambient]] = selection
    return c


def _objective_values(game: MultiLeaderGame, profile: MixedProfile) -> tuple[float, ...]:
    means = profile.means()
    return tuple(
        float(game.rival_objective(i, means, profile.market) @ means[i])
        for i in range(len(game.leaders))
    )


def deviation_check(
    game: MultiLeaderGame,
    profile: MixedProfile,
    sets: list[ComplementaritySet] | None = None,
    rows: list[PieceRows] | None = None,
) -> list[Deviation | None]:
    """Per-leader best response against the true feasible set.

    Rivals enter only through their support means: with linear payoffs
    the expected payoff of any reply equals its payoff at the rivals'
    mean, so one exact best response per leader settles whether the
    profile is an equilibrium.  An unbounded best response counts as a
    deviation and carries its ray.  The search looks only below the
    played value minus ``DEVIATION_TOL``, so it prunes every node that
    cannot hold a deviation, and finding nothing there means none.
    ``rows`` gives, per leader, the ``PieceRows`` of its set that the
    caller keeps across checks (``LeaderPieces.rows``); without it, each
    set of ``sets`` (by default the leaders' own) gets a fresh one.
    """
    if rows is None:
        sets = sets or [leader_feasible_set(l) for l in game.leaders]
        rows = [PieceRows(s) for s in sets]
    means = profile.means()
    out: list[Deviation | None] = []
    for i in range(len(game.leaders)):
        obj = game.rival_objective(i, means, profile.market)
        played = float(obj @ means[i])
        br = optimize_over_set(rows[i], obj, bound=played - DEVIATION_TOL)
        if br.status is LpStatus.UNBOUNDED:
            out.append(Deviation(leader=i, improvement=np.inf, point=br.point, ray=br.ray))
        elif br.status is LpStatus.OPTIMAL and (gain := played - br.value) > DEVIATION_TOL:
            out.append(Deviation(leader=i, improvement=gain, point=br.point))
        else:
            out.append(None)
    return out


def clearing_residual(game: MultiLeaderGame, profile: MixedProfile) -> float:
    """Largest violation of the game's market-clearing rows at the
    profile's support means."""
    if game.clearing is None:
        return 0.0
    rows = game.clearing @ np.concatenate(profile.means())
    return float(np.max(np.abs(rows), initial=0.0))


def _check_clearing(game: MultiLeaderGame, profile: MixedProfile) -> None:
    """Raise ``NumericalFailure`` if ``profile`` breaks market clearing."""
    if (residual := clearing_residual(game, profile)) > REPORT_TOL:
        raise NumericalFailure(f"market clearing violated by {residual:.2e}")


def _certified(game, selections, profile: MixedProfile) -> MixedProfile:
    """``profile``, once ``deviation_check`` finds no leader deviating from
    it, each leader's search on its set's kept ``rows``; a deviation
    raises ``NumericalFailure``."""
    devs = deviation_check(game, profile, rows=[sel.rows for sel in selections])
    for dev in devs:
        if dev is not None:
            raise NumericalFailure(
                f"leader {dev.leader} deviates from the profile found by {dev.improvement:.2e}"
            )
    return profile


def _report(game, selections, deadline, profile, status=None, iterations=1, trace=()):
    """Without ``status``, the one ``profile`` implies; a leader whose
    selection was not built yet counts 0 pieces found.  A profile that
    breaks market clearing raises ``NumericalFailure``."""
    if profile is not None:
        _check_clearing(game, profile)
    found = [len(sel.found) for sel in selections]
    if status is None:
        status = "NoEquilibrium" if profile is None else "PNE" if profile.is_pure() else "MNE"
    return SolveReport(
        status=status,
        profile=profile,
        iterations=iterations,
        wall_time=deadline.elapsed,
        pieces_per_leader=tuple(found + [0] * (len(game.leaders) - len(found))),
        objective_values=() if profile is None else _objective_values(game, profile),
        trace=tuple(trace),
    )


class LeaderPieces:
    """The pieces of one leader's set that enter its hull, kept as
    encodings over the set's ``PieceRows``.

    ``pending`` yields the nonempty pieces in ``order``, each as its
    encoding and a point of it: ``seq``/``rseq`` enumerate lazily, in
    lexicographic order and its reverse; ``rand`` (a uniform shuffle) and
    ``None`` (every piece, for full and pure enumeration) enumerate up
    front, and ``pieces`` keeps that list for ``include_extremes`` and
    ``enter``.  A piece's single-point test runs once, when it is
    included, at that point; ``found`` holds every nonempty encoding
    seen, from ``pending`` or a deviation.  Every LP over the set's
    relaxation runs on ``rows.lp``, within ``deadline``, which ``rows`` holds.
    """

    def __init__(
        self,
        s: ComplementaritySet,
        order: Strategy | None,
        deadline: Deadline,
        rng: Lcg | None = None,
    ):
        self.rows = PieceRows(s, deadline)
        self.included: set[tuple[int, ...]] = set()
        self.encodings: list[tuple[int, ...]] = []
        self.points: list[np.ndarray | None] = []
        self._next: tuple[tuple[int, ...], np.ndarray] | None = None
        self.duals: list[np.ndarray] = []  # of the LP scans' optima, for ``enter``
        if order in ("seq", "rseq"):
            self.pending = iter_encodings(self.rows, int(order == "rseq"))
            self.found: set[tuple[int, ...]] = set()
        else:
            self.pieces = enumerate_pieces(self.rows)
            if order == "rand":
                rng.shuffle(self.pieces)
            self.pending = iter(self.pieces)
            self.found = {encoding for encoding, _ in self.pieces}

    def _fresh(self) -> tuple[tuple[int, ...], np.ndarray] | None:
        """The next pending piece that is not included yet."""
        while self._next is None or self._next[0] in self.included:
            self._next = next(self.pending, None)
            if self._next is None:
                return None
            self.found.add(self._next[0])
        return self._next

    def _include(self, encoding: tuple[int, ...], x: np.ndarray) -> None:
        self.included.add(encoding)
        self.encodings.append(encoding)
        self.points.append(self.rows.single_point(encoding, x))

    @property
    def exhausted(self) -> bool:
        return self._fresh() is None

    def extend(self, count: float = math.inf) -> int:
        """Include up to ``count`` more pending pieces (all by default)."""
        added = 0
        while added < count and self._fresh() is not None:
            self._include(*self._next)
            added += 1
        return added

    def add(self, encoding: tuple[int, ...]) -> bool:
        """Include a piece found by a deviation, if nonempty and new."""
        if encoding in self.included:
            return False
        feasible, x = self.rows.witness(encoding)
        if not feasible:
            return False
        self.found.add(encoding)
        self._include(encoding, x)
        return True

    def hull(self) -> HullFormulation:
        return balas_hull(self.rows, self.encodings, self.points)

    # -- pricing over the pieces enumerated up front ----------------------
    @cached_property
    def piece_points(self) -> np.ndarray:
        """The enumeration's point of every piece, one row each."""
        return np.array([x for _, x in self.pieces])

    @cached_property
    def piece_ones(self) -> np.ndarray:
        """Per piece, the bitmask of the pairs its encoding pins at side 1."""
        bits = np.array([e for e, _ in self.pieces], dtype=np.int64)
        return bits.reshape(len(self.pieces), -1) @ (1 << np.arange(self.rows.num_pairs))

    def _certified(self, y: np.ndarray, w: np.ndarray, bound: float) -> np.ndarray:
        """Per piece, whether the row duals y prove min w.x >= ``bound``
        over it (``PieceRows.certificate``)."""
        cert = self.rows.certificate(y, w)
        if cert is None or cert[2] < bound:
            return np.zeros(len(self.pieces), dtype=bool)
        need1, need0, _ = cert
        ones = self.piece_ones
        return (ones & need1 == need1) & (ones & need0 == 0)

    def include_extremes(self, rows) -> None:
        """Include the pieces whose points are smallest and largest along
        each of ``rows`` (one per column of the set)."""
        values = np.asarray(rows @ self.piece_points.T).reshape(-1, len(self.pieces))
        for j in np.column_stack([values.argmin(axis=1), values.argmax(axis=1)]).ravel():
            encoding, x = self.pieces[j]
            if encoding not in self.included:
                self._include(encoding, x)

    def enter(self, w: np.ndarray, bound: float) -> tuple[float, np.ndarray] | None:
        """Include a piece not yet included on which min w.x falls below
        ``bound``; w.x and x at the point of the piece that showed it
        (-inf and the enumeration's point on an unbounded piece), or None
        if no piece has one.

        The pieces' points are tested first, by one product.  Only when
        none beats the bound does the LP scan run, in ascending order of
        the points' values, up to the first piece that beats it: min w.x
        over a piece on ``rows.lp``, unless row duals already prove it at
        least the bound (weak duality, ``PieceRows.certificate``).  The row
        duals of every scan LP that does not beat the bound cover each
        piece with the pins they need, in this scan and, under their new
        w, in every later one.
        """
        left = [j for j, (enc, _) in enumerate(self.pieces) if enc not in self.included]
        if not left:
            return None
        values = self.piece_points[left] @ w
        order = np.argsort(values, kind="stable")
        if values[order[0]] < bound:
            j = left[order[0]]
            self._include(*self.pieces[j])
            return float(values[order[0]]), self.pieces[j][1]
        lp = self.rows.lp
        lp.set_objective(w)
        skip = np.zeros(len(self.pieces), dtype=bool)
        for y in self.duals:
            skip |= self._certified(y, w, bound)
        for t in order:
            j = left[t]
            if skip[j]:
                continue
            lp.move_to(*self.rows.pin_bounds(enumerate(self.pieces[j][0])))
            status, x, value = lp.solve()
            if status is LpStatus.UNBOUNDED:
                value, x = -np.inf, self.pieces[j][1]
            if status is not LpStatus.INFEASIBLE and value < bound:
                self._include(*self.pieces[j])
                return value, x
            if status is LpStatus.OPTIMAL:
                self.duals.append(lp.row_duals())
                skip |= self._certified(self.duals[-1], w, bound)
        return None


def _start(game, order, k, deadline, selections, rng: Lcg | None = None) -> bool:
    """Append each leader's selection to ``selections`` as it is built (a
    budget cut keeps the counts reached), then extend each by ``k``
    pieces; False, extending none, when a leader's set is empty.  With
    every piece enumerated up front in order (``order`` None), a leader
    also takes the pieces whose points are extreme along each clearing
    row, so that a restricted market can clear."""
    for i, leader in enumerate(game.leaders):
        split = None if rng is None else rng.split(i)
        selections.append(LeaderPieces(leader_feasible_set(leader), order, deadline, split))
    deadline.check()
    if any(sel.exhausted for sel in selections):
        return False
    for i, sel in enumerate(selections):
        sel.extend(k)
        if order is None and game.n_market:
            offset = game.ambient_offset(i)
            sel.include_extremes(game.clearing[:, offset : offset + game.ambients[i]])
    return True


def _decode(lifted, hulls, selections, market, pure=False) -> MixedProfile:
    """The profile of a solved hull game: per leader its lifted point and
    hull layout.  With ``pure`` each aggregate is the leader's single
    point.  Otherwise an aggregate in the true set is played purely, and
    any other is split into its hull support."""
    supports = []
    for point, hull, sel in zip(lifted, hulls, selections):
        agg = point[hull.agg_slice]
        if pure or contains(sel.rows.set, agg, FEAS_TOL):
            supports.append(((agg, 1.0),))
        else:
            supports.append(tuple(decompose_mixed(point, hull)))
    return MixedProfile(supports=tuple(supports), market=market)


def _restricted_equilibrium(
    game, selections, deadline, criterion=None, pure=False
) -> MixedProfile | None:
    """An equilibrium of the hull game over the included pieces, or None:
    the hulls lifted, assembled and solved once (``find_pne``).  With
    ``pure`` the hull weights are binary."""
    hulls = [sel.hull() for sel in selections]
    deadline.check()
    asm = _assemble_hull_game(game, hulls)
    res = find_pne(
        asm.game,
        _embed_selection(asm, game, criterion),
        deadline,
        binaries=asm.binaries if pure else (),
    )
    if not res.found:
        return None
    return _decode(res.strategies(), hulls, selections, res.market(), pure)


def _dense(m) -> np.ndarray:
    return m.toarray() if hasattr(m, "toarray") else np.asarray(m)


def _meets_at_the_price(game: MultiLeaderGame) -> bool:
    """Whether the leaders meet only through the market price: each
    leader's coupling is zero on the strategy columns and equals its block
    of the clearing rows, transposed, on the price columns.  Then the hull
    game's equilibria are the optimal primal-dual pairs of one planner LP
    (Samuelson, "Spatial price equilibrium and linear programming", AER
    1952), which the solvers keep as ``RestrictedPlanner``."""
    n, m = game.total_ambient, game.n_market
    blocks = zip(game.ambients, game.couplings)
    stacked = np.vstack([np.zeros((a, n + m)) if k is None else _dense(k) for a, k in blocks])
    price = np.zeros((n, m)) if game.clearing is None else _dense(game.clearing).T
    return not stacked[:, :n].any() and np.array_equal(stacked[:, n:], price)


def _optimality_row(game: MultiLeaderGame, x: np.ndarray) -> tuple[np.ndarray, float]:
    """The planner's objective c over the leaders' blocks, and the cap OPT +
    ``PLANNER_SLACK`` on c.x with OPT = c.x at the planner optimum x: the
    row that keeps a search to the planner's optima."""
    c = np.concatenate(game.objectives)
    return c, float(c @ x) + PLANNER_SLACK


@dataclass
class _GrownHull:
    """One leader's part of a ``RestrictedPlanner``: its ``HullLayout``
    data, where the master keeps each lifted column, and where the
    one-shot hull's rows lie in it (piece rows in hull order)."""

    x_cols: np.ndarray
    points: list = field(default_factory=list)
    copy_cols: list = field(default_factory=list)
    copy_start: list = field(default_factory=list)
    copy_vars: int = 0
    copy_idx: list = field(default_factory=list)  # master columns of each copy, fat order
    delta_idx: list = field(default_factory=list)  # master column of each delta
    ineq_rows: list = field(default_factory=list)  # master rows of each batch's Balas <= rows
    eq_rows: list = field(default_factory=list)  # and of its Balas equalities

    def layout(self) -> HullLayout:
        return HullLayout(
            n=len(self.x_cols),
            k=len(self.points),
            points=tuple(self.points),
            copy_cols=tuple(self.copy_cols),
            copy_start=tuple(self.copy_start),
            num_copies=sum(pt is None for pt in self.points),
            copy_vars=self.copy_vars,
        )

    @property
    def lifted_cols(self) -> np.ndarray:
        """Master column of each column of the leader's lifted hull."""
        return np.concatenate(self.copy_idx + [np.array(self.delta_idx, dtype=int), self.x_cols])


class RestrictedPlanner:
    """The planner LP of the hull game over the included pieces, kept for
    the whole solve and grown in place: the restricted master of column
    generation (Dantzig and Wolfe, 1960) for a game whose leaders meet
    only through the market price.

    Columns: every leader's aggregate x_i, then each piece as it is
    included: its kept copy columns and its weight delta in [0, inf), or,
    for a single point, the weight alone.  Rows: each leader's aggregation
    rows sum copies + sum_j delta_j v_j - x_i = 0 and its convexity row
    sum delta = 1, the clearing rows over the aggregates, then each fat
    piece's Balas rows (``piece_block``).  The objective is each leader's
    own, on its aggregate.  A new piece's columns and rows leave the last
    basis primal feasible, so each solve runs primal simplex from it.
    """

    def __init__(self, game: MultiLeaderGame, selections, deadline: Deadline):
        self.game = game
        self.selections = selections
        n, n_l, n_mkt = game.total_ambient, len(game.leaders), game.n_market
        self.hulls = [
            _GrownHull(x_cols=game.ambient_offset(i) + np.arange(amb))
            for i, amb in enumerate(game.ambients)
        ]
        rows = Triplets()
        rows.add(np.arange(n), np.arange(n), -np.ones(n))
        if n_mkt:
            rows.put(game.clearing, n + n_l, 0)
        rhs = np.concatenate([np.zeros(n), np.ones(n_l), np.zeros(n_mkt)])
        self.clearing_rows = n + n_l + np.arange(n_mkt)
        self.lp = RangedLp(
            np.concatenate(game.objectives),
            rows.matrix((len(rhs), n)),
            rhs,
            rhs,
            deadline=deadline,
            primal=True,
        )

    def include(self, i: int, rows: PieceRows, encodings, points) -> None:
        """Add pieces of leader i, with their single points or None."""
        hull, lp = self.hulls[i], self.lp
        fat = [j for j, pt in enumerate(points) if pt is None]
        solid = [j for j, pt in enumerate(points) if pt is not None]
        blk = piece_block(rows, [encodings[j] for j in fat])
        n0, m0 = lp.n, lp.m
        copies = blk.copy_vars
        width = copies + len(fat) + len(solid)
        # new columns: the copies and the fat pieces' deltas as ``blk``
        # lays them out, then the points' deltas.  Their entries in the
        # rows the master has: a copy column in its aggregation row, a
        # delta in the convexity row, and a point's delta in the
        # aggregation rows, as v_j
        delta = np.empty(len(points), dtype=int)
        delta[fat] = n0 + copies + np.arange(len(fat))
        delta[solid] = n0 + copies + len(fat) + np.arange(len(solid))
        _, amb = np.nonzero(blk.kept)
        values = [points[j] for j in solid]
        nonzero = [np.flatnonzero(v) for v in values]
        lp.add_cols(
            np.zeros(width),
            np.concatenate([np.full(copies, -INF), np.zeros(width - copies)]),
            np.full(width, INF),
            (
                np.concatenate(
                    [hull.x_cols[amb], np.full(width - copies, self.game.total_ambient + i)]
                    + [hull.x_cols[z] for z in nonzero]
                ),
                np.concatenate(
                    [np.arange(width)]
                    + [np.full(len(z), delta[j] - n0) for j, z in zip(solid, nonzero)]
                ),
                np.concatenate([np.ones(width)] + [v[z] for v, z in zip(values, nonzero)]),
            ),
        )
        r, col, v, n_ineq = blk.ineq
        r_eq, col_eq, v_eq, n_eq = blk.eq
        lp.add_rows(
            np.concatenate([np.full(n_ineq, -INF), np.zeros(n_eq)]),
            np.zeros(n_ineq + n_eq),
            (
                np.concatenate([r, n_ineq + r_eq]),
                n0 + np.concatenate([col, col_eq]),
                np.concatenate([v, v_eq]),
            ),
        )
        hull.ineq_rows.append(m0 + np.arange(n_ineq))
        hull.eq_rows.append(m0 + n_ineq + np.arange(n_eq))
        starts = blk.starts
        copy_of = dict(zip(fat, range(len(fat))))
        for j, pt in enumerate(points):
            f = copy_of.get(j)
            hull.points.append(pt)
            hull.delta_idx.append(int(delta[j]))
            hull.copy_cols.append(None if f is None else np.flatnonzero(blk.kept[f]))
            hull.copy_start.append(-1 if f is None else hull.copy_vars + int(starts[f]))
            if f is not None:
                hull.copy_idx.append(n0 + starts[f] + np.arange(len(hull.copy_cols[-1])))
        hull.copy_vars += copies

    def equilibrium(self, deadline: Deadline) -> MixedProfile | None:
        """Include what each leader included since the last solve, solve
        warm, and decode at the prices, the negated clearing-row duals;
        None when the master is infeasible or unbounded (``status``)."""
        for i, sel in enumerate(self.selections):
            k = len(self.hulls[i].points)
            if len(sel.encodings) > k:
                self.include(i, sel.rows, sel.encodings[k:], sel.points[k:])
        deadline.check()
        self.status, x, _ = self.lp.solve()
        if self.status is not LpStatus.OPTIMAL:
            return None
        lifted = [x[h.lifted_cols] for h in self.hulls]
        layouts = [h.layout() for h in self.hulls]
        return _decode(lifted, layouts, self.selections, -self.lp.row_duals()[self.clearing_rows])

    def selected(self, selection: np.ndarray, profile: MixedProfile) -> MixedProfile:
        """Phase 2 (Desrosiers and Lübbecke, 2005), once no piece prices out
        under ``profile``: the selection's optimum under one more row c.x <=
        OPT + ``PLANNER_SLACK``, priced until no piece enters; a point v of
        leader i has the reduced cost w_i.v - y_conv, with w_i = -y on its
        aggregation rows and y_conv on its convexity row.  Any optimal point
        pairs with any optimal dual, so it decodes at ``profile``'s prices."""
        n = self.game.total_ambient
        c, cap = _optimality_row(self.game, np.concatenate(profile.means()))
        cols = np.flatnonzero(c)
        self.lp.add_rows([-INF], [cap], (np.zeros(len(cols), dtype=int), cols, c[cols]))
        self.lp.set_objective(np.concatenate([selection, np.zeros(self.lp.n - n)]))
        while True:
            found = self.equilibrium(self.lp.deadline)
            if self.status is LpStatus.UNBOUNDED:
                raise LpError("selection objective is unbounded over the equilibrium set")
            if found is None:
                raise NumericalFailure("the planner's optima are empty under their own value")
            y = self.lp.row_duals()
            entered = [
                sel.enter(-y[h.x_cols], y[n + i] - DEVIATION_TOL)
                for i, (sel, h) in enumerate(zip(self.selections, self.hulls))
            ]
            if all(e is None for e in entered):
                return _certified(self.game, self.selections, replace(found, market=profile.market))


def _enumeration(
    game: MultiLeaderGame, selection: np.ndarray | None, budget: float | None, pure: bool
) -> SolveReport:
    """The hull game of a game that is not a market game over every piece
    of every leader, lifted and searched once (``_restricted_equilibrium``);
    an equilibrium found is certified (``_certified``)."""
    deadline = Deadline(budget)
    selections: list[LeaderPieces] = []
    try:
        profile = None
        if _start(game, None, math.inf, deadline, selections):
            profile = _restricted_equilibrium(game, selections, deadline, selection, pure)
            if profile is not None:
                profile = _certified(game, selections, profile)
        return _report(game, selections, deadline, profile)
    except TimeLimitReached:
        return _report(game, selections, deadline, None, "TimeLimit")


def _grow(
    game, budget, order, k, price, fallback, rng: Lcg | None = None, finish=None
) -> SolveReport:
    """Column generation over the leaders' pieces (Dantzig and Wolfe, 1960).

    Each leader starts from ``k`` pieces in ``order`` (``_start``).  Every
    iteration solves the hull game over the included pieces.  ``price``
    then takes its profile, includes per leader a piece on which the
    leader does better than it plays, and returns per leader what it
    found, or None; a profile on which every leader finds nothing is
    returned, or, with ``finish``, what ``finish(master, profile)`` makes
    of it on the grown master (None: no equilibrium).  A restricted game
    with no equilibrium extends every leader by ``fallback`` pieces, and
    once every piece is in, shows that none exists.

    When the leaders meet only through the market price, the restricted
    game is one ``RestrictedPlanner`` kept for the whole solve: each
    iteration adds the pieces included since the last one and re-solves
    warm.  Any other restricted game is lifted, assembled and searched
    anew (``_restricted_equilibrium``).  ``finish`` comes only with a
    market game (``full_enumeration`` with a selection, ``pure_enumeration``).
    """
    deadline = Deadline(budget)
    trace: list[dict] = []
    selections: list[LeaderPieces] = []
    try:
        if not _start(game, order, k, deadline, selections, rng):
            return _report(game, selections, deadline, None)
        if finish is not None or _meets_at_the_price(game):
            master = RestrictedPlanner(game, selections, deadline)
            restricted = master.equilibrium
        else:
            restricted = partial(_restricted_equilibrium, game, selections)
        while True:
            deadline.check()
            profile = restricted(deadline)
            found = None if profile is None else price(game, selections, profile)
            trace.append({"restricted": profile, "deviations": found})
            if profile is None:
                if all(sel.exhausted for sel in selections):
                    return _report(
                        game, selections, deadline, None, iterations=len(trace), trace=trace
                    )
                for sel in selections:
                    sel.extend(fallback)
            elif all(f is None for f in found):
                if finish is not None:
                    profile = finish(master, profile)
                return _report(
                    game, selections, deadline, profile, iterations=len(trace), trace=trace
                )
    except TimeLimitReached:
        return _report(
            game, selections, deadline, None, "TimeLimit", len(trace) + 1, trace
        )


def _scan(game, selections, profile) -> list[Deviation | None]:
    """Full enumeration's pricing: per leader, include a piece with a
    point that beats the leader's play by more than ``DEVIATION_TOL``
    (``LeaderPieces.enter``), and return it as a deviation to that point."""
    means = profile.means()
    out: list[Deviation | None] = []
    for i, sel in enumerate(selections):
        w = game.rival_objective(i, means, profile.market)
        played = float(w @ means[i])
        entered = sel.enter(w, played - DEVIATION_TOL)
        out.append(
            None
            if entered is None
            else Deviation(leader=i, improvement=played - entered[0], point=entered[1])
        )
    return out


def _deviations(game, selections, profile) -> list[Deviation | None]:
    """The inner approximation's pricing: ``deviation_check`` against the
    true sets, each leader's search on its set's kept ``rows``, and per
    profitable deviation the piece containing its point, or else the
    leader's next pending piece."""
    devs = deviation_check(game, profile, rows=[sel.rows for sel in selections])
    added = False
    for dev in devs:
        if dev is None or dev.point is None:
            continue
        sel = selections[dev.leader]
        if sel.add(_piece_encoding_at(sel.rows.set, dev.point)) or sel.extend(1):
            added = True
    if not added and any(d is not None for d in devs):
        raise NumericalFailure("deviation found but no piece left to add; tolerances disagree")
    return devs


def full_enumeration(
    game: MultiLeaderGame,
    selection: np.ndarray | None = None,
    budget: float | None = None,
) -> SolveReport:
    """Mixed equilibrium by complete piece enumeration and hull lifting.

    Every piece of every leader is enumerated, but the hull game over
    all of them is solved by column generation (``_grow``): each leader
    starts from its first piece and the pieces extreme along the clearing
    rows, and after each restricted game every leader prices every piece
    left out, by its point and else by an LP over it, unless the row
    duals of an earlier scan LP already prove the piece no better
    (``LeaderPieces.enter``).  A profile no
    piece beats by more than ``DEVIATION_TOL`` is an equilibrium of the
    hull game over every piece.  A restricted game with no equilibrium
    takes every piece at once, so a ``NoEquilibrium`` is the one-shot
    hull game's.

    With a ``selection`` on a market game, the loop's master then goes on
    pricing under the selection (``RestrictedPlanner.selected``); on any
    other game the one-shot hull game's KKT system is searched under it
    (``_enumeration``).  Either answer is certified by ``deviation_check``.
    """
    _check_selection(game, selection)
    if selection is None:
        return _grow(game, budget, None, 1, _scan, math.inf)
    if not _meets_at_the_price(game):
        return _enumeration(game, selection, budget, pure=False)
    finish = lambda master, profile: master.selected(selection, profile)
    return _grow(game, budget, None, 1, _scan, math.inf, finish=finish)


def pure_enumeration(
    game: MultiLeaderGame,
    selection: np.ndarray | None = None,
    budget: float | None = None,
) -> SolveReport:
    """Pure equilibrium, or proof that none exists.

    When the leaders meet only through the market price
    (``_meets_at_the_price``), the hull game's equilibria are the optimal
    primal-dual pairs of its planner LP, and any optimal point pairs with
    any optimal dual, so a pure equilibrium is a planner optimum with
    every block in its leader's true set.  The inner approximation's loop
    (``seq``, k = 1) solves the hull game, enumerating pieces lazily: a
    hull game without equilibrium has no pure one either.  Otherwise its
    profile gives the prices and the planner value OPT = sum_i c_i.mean_i,
    and ``_pure_equilibrium`` searches the leaders' own sets side by side
    for a point with c.x <= OPT + ``PLANNER_SLACK`` and certifies it.  The
    last pricing pass proved min over S_i of w_i.y >= w_i.mean_i -
    ``DEVIATION_TOL`` at the prices, so by Lagrangian duality the hull
    game's value lies in [OPT - leaders * ``DEVIATION_TOL``, OPT]: the row
    cuts off no pure equilibrium.

    Any other game searches its one-shot hull game with binary hull
    weights.  The search branches on fractional hull weights before any
    pair, so it picks each leader's piece first.  At a 0-branch the
    corresponding piece copy is pinned to zero as well, so recession
    directions of switched-off unbounded pieces cannot leak into the
    aggregate: the solution's aggregate block lies in the single active
    piece.  Its equilibrium is certified by ``deviation_check`` too.
    """
    _check_selection(game, selection)
    if not _meets_at_the_price(game):
        return _enumeration(game, selection, budget, pure=True)
    finish = partial(_pure_equilibrium, selection)
    return _grow(game, budget, "seq", 1, _deviations, 1, finish=finish)


def _equilibrium_set(
    game: MultiLeaderGame, sets, c: np.ndarray, cap: float
) -> ComplementaritySet:
    """The leaders' own sets side by side, each on its ambient block, with
    the clearing rows as equalities and one more row c.x <= cap."""
    n = game.total_ambient
    a, a_eq, m_mat = Triplets(), Triplets(), Triplets()
    b, b_eq, q, comp = [], [], [], []
    for i, s in enumerate(sets):
        offset = game.ambient_offset(i)
        a.put(s.a, sum(map(len, b)), offset)
        a_eq.put(s.a_eq, sum(map(len, b_eq)), offset)
        m_mat.put(s.m_mat, len(comp), offset)
        b.append(np.asarray(s.b, dtype=float))
        b_eq.append(np.asarray(s.b_eq, dtype=float))
        q.append(np.asarray(s.q, dtype=float))
        comp.extend(offset + j for j in s.comp)
    a.put(c[None, :], sum(map(len, b)), 0)
    b.append(np.array([cap]))
    if game.n_market:
        a_eq.put(game.clearing, sum(map(len, b_eq)), 0)
        b_eq.append(np.zeros(game.n_market))
    return ComplementaritySet(
        a=a.matrix((sum(map(len, b)), n)),
        b=np.concatenate(b),
        m_mat=m_mat.matrix((len(comp), n)),
        q=np.concatenate(q),
        comp=tuple(comp),
        a_eq=a_eq.matrix((sum(map(len, b_eq)), n)),
        b_eq=np.concatenate(b_eq),
    )


def _pure_equilibrium(selection, master, profile: MixedProfile) -> MixedProfile | None:
    """A certified pure equilibrium of a market game at the prices of the
    hull game's equilibrium ``profile``, or None: one search of
    ``_equilibrium_set``, under the selection, else under the planner's c
    with its first incumbent bound just above the row's.  A pure
    ``profile`` passed the last pricing pass's ``deviation_check``: it is
    the answer without a selection, and the selected search's first
    incumbent with one."""
    game, selections = master.game, master.selections
    known = profile if profile.is_pure() else None
    if known is not None and selection is None:
        return known
    _check_clearing(game, profile)
    c, cap = _optimality_row(game, np.concatenate(profile.means()))
    s = _equilibrium_set(game, [sel.rows.set for sel in selections], c, cap)
    rows = PieceRows(s, master.lp.deadline)
    if selection is None:
        found = optimize_over_set(rows, c, bound=cap + PLANNER_SLACK)
    else:
        bound = np.inf if known is None else float(selection @ np.concatenate(known.means()))
        found = optimize_over_set(rows, selection, bound=bound)
    if found.status is LpStatus.UNBOUNDED:
        raise LpError("selection objective is unbounded over the equilibrium set")
    if found.status is not LpStatus.OPTIMAL:
        return known
    blocks = np.split(found.point, np.cumsum(game.ambients)[:-1])
    pure = MixedProfile(supports=tuple(((x, 1.0),) for x in blocks), market=profile.market)
    return _certified(game, selections, pure)


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
    in, the iteration coincides with full enumeration.  The loop is full
    enumeration's (``_grow``), priced by ``deviation_check`` on each
    leader's kept relaxation model (``PieceRows.lp``).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown extension strategy {strategy!r}")
    return _grow(game, budget, strategy, k, _deviations, k, Lcg(seed))
