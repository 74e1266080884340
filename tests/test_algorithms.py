import dataclasses
import math
import time
import types

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from epecnash import algorithms, nashgame
from epecnash.algorithms import (
    DegenerateWeight,
    Deviation,
    MixedProfile,
    LeaderPieces,
    _assemble_hull_game,
    clearing_residual,
    decompose_mixed,
    deviation_check,
    full_enumeration,
    inner_approximation,
    pure_enumeration,
)
from epecnash.cli import _selection_vector
from epecnash.energy import PARADIGMS, build_game
from epecnash.generators import GenConfig, gen_energy
from epecnash.generators import (
    SubsetSumInterval,
    gen_mne_hardness,
    gen_pne_hardness,
    matching_pennies_game,
    random_trivial_game,
    split_interval_game,
)
from epecnash.leadergame import MultiLeaderGame, StackelbergLeader, leader_feasible_set
from epecnash.nashgame import (
    PolyhedralNashGame,
    QuadraticPlayer,
    kkt_layout,
    kkt_system,
)
from epecnash.generators import _abs_gadget_follower
from epecnash.hotlp import INF, RangedLp
from epecnash.lp import LpError, LpStatus, NumericalFailure
from epecnash.polyhedra import (
    ComplementaritySet,
    Deadline,
    HullFormulation,
    PieceRows,
    TimeLimitReached,
    TooManyComplementarities,
    balas_hull,
    contains,
    enumerate_pieces,
)
from epecnash.rng import Lcg
from epecnash.tolerances import ENUM_CAP, PLANNER_SLACK, REPORT_TOL

from tests.helpers import (
    hull_of,
    interval_of,
    pieces_of,
    planner_lp,
    split_interval_set,
    strategy_coupling,
    symmetric_pair,
)


def _energy_game(seed: int, followers: int) -> MultiLeaderGame:
    """The benchmark's two-country energy instance."""
    cfg = GenConfig(seed=seed, countries=2, followers=(followers, followers))
    return build_game(gen_energy(cfg))


def single_leader_game() -> MultiLeaderGame:
    leader = StackelbergLeader(
        name="solo",
        n_leader=1,
        poly_a=np.array([[-1.0], [1.0]]),
        poly_b=np.array([0.0, 1.0]),
    )
    return MultiLeaderGame(
        leaders=(leader,), objectives=(np.array([-1.0]),), couplings=(None,)
    )


class TestLeaderFeasibleSet:
    def test_follower_free_leader(self):
        # the empty follower game adds no column, row or pair
        for leader, a, b in [
            (single_leader_game().leaders[0], [[-1.0], [1.0]], [0.0, 1.0]),
            (split_interval_game().leaders[0], [[-1.0]], [0.0]),
        ]:
            s = leader_feasible_set(leader)
            assert leader.followers.players == ()
            assert leader.ambient == leader.n_leader == s.n
            assert s.a.toarray().tolist() == a and s.b.tolist() == b
            assert s.a_eq.shape == (0, s.n) and s.comp == ()

    @pytest.mark.parametrize("solver", [full_enumeration, pure_enumeration, inner_approximation])
    def test_follower_free_leaders_solve(self, solver):
        plain = solver(split_interval_game())
        assert (plain.status, plain.pieces_per_leader) == ("NoEquilibrium", (1, 2))
        flipped = solver(split_interval_game(flipped=True))
        pieces = (1, 1) if solver is inner_approximation else (1, 2)
        assert (flipped.status, flipped.pieces_per_leader) == ("PNE", pieces)
        assert flipped.profile.mean(0) == pytest.approx([0.0], abs=1e-9)
        assert flipped.profile.mean(1) == pytest.approx([5.0, 4.0, 0.0, 1.0], abs=1e-9)
        solo = solver(single_leader_game())
        assert (solo.status, solo.pieces_per_leader) == ("PNE", (1,))
        assert solo.profile.mean(0) == pytest.approx([1.0], abs=1e-9)

    def test_absolute_value_gadget_projection(self):
        # one leader variable tracked by the gadget; y >= 0 at the top
        # level splits x into {x <= 0} and {x >= 1}
        leader = StackelbergLeader(
            name="gadget",
            n_leader=1,
            poly_a=np.array([[0.0, -1.0]]),
            poly_b=np.array([0.0]),
            followers=PolyhedralNashGame(
                players=(_abs_gadget_follower(1, [0], 1),), n_param=1
            ),
        )
        s = leader_feasible_set(leader)
        assert len(s.comp) == 2
        pieces = pieces_of(s)
        spans = sorted(interval_of(poly, 0) for _, poly in pieces)
        assert len(spans) == 2
        assert spans[0][0] == -np.inf and spans[0][1] == pytest.approx(0.0, abs=1e-9)
        assert spans[1][0] == pytest.approx(1.0, abs=1e-9) and spans[1][1] == np.inf

    def test_split_interval_pieces(self):
        g = split_interval_game()
        s = leader_feasible_set(g.leaders[1])
        pieces = pieces_of(s)
        spans = {e: interval_of(poly, 0) for e, poly in pieces}
        assert spans[(0, 1)] == pytest.approx((1.0, 5.0), abs=1e-9)
        assert spans[(1, 0)] == pytest.approx((-5.0, -1.0), abs=1e-9)


def cleared_market_game() -> MultiLeaderGame:
    """A leader x in [0, 1] over a seller y1 and a buyer y2 that clear
    y1 = y2 at a price pi, and a rival z in [0, 1] paying (x - 1/2) z.

    The seller minimizes y1^2/2 - pi y1, the buyer y2^2/2 + (pi + x - 3) y2,
    both over [0, 2]; so y1 = y2 = pi = (3 - x)/2.  The leader minimizes
    x - pi and plays x = 0, pi = 3/2; the rival then plays z = 1.
    """
    box = np.array([[-1.0], [1.0]])
    seller = QuadraticPlayer(
        c=np.zeros(1), a=box, b=np.array([0.0, 2.0]), q=np.eye(1),
        coupling=np.array([[0.0, 0.0, -1.0]]),
    )
    buyer = QuadraticPlayer(
        c=np.array([-3.0]), a=box, b=np.array([0.0, 2.0]), q=np.eye(1),
        coupling=np.array([[0.0, 0.0, 1.0]]), param_obj=np.eye(1),
    )
    market = StackelbergLeader(
        name="market",
        n_leader=1,
        poly_a=np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        poly_b=np.array([0.0, 1.0]),
        followers=PolyhedralNashGame(
            players=(seller, buyer), clearing=np.array([[1.0, -1.0]]), n_param=1
        ),
    )
    rival = StackelbergLeader(name="rival", n_leader=1, poly_a=box, poly_b=np.array([0.0, 1.0]))
    width = leader_feasible_set(market).n
    objective = np.zeros(width)
    objective[0], objective[-1] = 1.0, -1.0  # x - pi; pi is the last column
    rival_coupling = np.zeros((1, width + 1))
    rival_coupling[0, 0] = 1.0
    return MultiLeaderGame(
        leaders=(market, rival),
        objectives=(objective, np.array([-0.5])),
        couplings=(None, rival_coupling),
    )


class TestClearedFollowers:
    def test_ambient_spans_the_price_block(self):
        # 1 leader column, 2 strategies, 4 multipliers and the price
        market = cleared_market_game().leaders[0]
        assert market.ambient == leader_feasible_set(market).n == 8

    def test_full_enumeration_is_certified(self):
        g = cleared_market_game()
        rep = full_enumeration(g)
        assert rep.status == "PNE"
        x = rep.profile.mean(0)
        assert x[0] == pytest.approx(0.0, abs=1e-7)
        assert [x[1], x[2], x[-1]] == pytest.approx([1.5] * 3, abs=1e-7)  # y1, y2, pi
        assert rep.profile.mean(1)[0] == pytest.approx(1.0, abs=1e-7)
        assert deviation_check(g, rep.profile) == [None, None]


class TestFullEnumeration:
    def test_no_equilibrium_game(self):
        assert full_enumeration(split_interval_game()).status == "NoEquilibrium"

    def test_flipped_game_has_pure_equilibrium(self):
        rep = full_enumeration(split_interval_game(flipped=True))
        assert rep.status == "PNE"
        assert rep.profile.mean(0) == pytest.approx([0.0], abs=1e-6)
        assert rep.profile.mean(1)[0] == pytest.approx(5.0, abs=1e-6)

    def test_matching_pennies_mixes_evenly(self):
        rep = full_enumeration(matching_pennies_game())
        assert rep.status == "MNE"
        for sup in rep.profile.supports:
            assert sorted(p for _, p in sup) == pytest.approx([0.5, 0.5], abs=1e-6)
            assert sum(p for _, p in sup) == pytest.approx(1.0, abs=1e-9)

    def test_single_leader_is_an_optimization(self):
        rep = full_enumeration(single_leader_game())
        assert rep.status == "PNE"
        assert rep.profile.mean(0) == pytest.approx([1.0], abs=1e-7)

    def test_budget_is_read_after_the_hulls(self, monkeypatch):
        # a budget that runs out while the hulls are built stops the
        # solve before the hull game's KKT system is assembled
        def slow_hull(*args):
            time.sleep(0.3)
            return balas_hull(*args)

        def no_kkt(g):
            raise AssertionError("KKT assembly ran past the budget")

        monkeypatch.setattr(algorithms, "balas_hull", slow_hull)
        monkeypatch.setattr(nashgame, "kkt_system", no_kkt)
        assert full_enumeration(split_interval_game(), budget=0.2).status == "TimeLimit"

    def test_budget_is_read_after_kkt_assembly(self, monkeypatch):
        assemble = nashgame.kkt_system

        def slow_kkt(g):
            time.sleep(0.3)
            return assemble(g)

        def no_search(*args, **kwargs):
            raise AssertionError("branch-and-bound ran past the budget")

        monkeypatch.setattr(nashgame, "kkt_system", slow_kkt)
        monkeypatch.setattr(nashgame, "optimize_over_set", no_search)
        assert full_enumeration(split_interval_game(), budget=0.2).status == "TimeLimit"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_budget_holds_on_a_large_hull_game(self, seed):
        # without a budget, the KKT search of the one-shot hull game with
        # binary weights on C2F8 seed 0 takes about 3 s and on seed 1 about
        # 13 s, from about 0.35 s in (pure_enumeration on these market games
        # takes another path, of about 0.15 s, and so does full)
        game = build_game(gen_energy(GenConfig(seed=seed, countries=2, followers=(8, 8))))
        budget = (1.0, 0.6)[seed]
        t0 = time.perf_counter()
        rep = algorithms._enumeration(game, None, budget, pure=True)
        elapsed = time.perf_counter() - t0
        assert rep.status == "TimeLimit"
        assert elapsed <= budget + 0.5

    def test_hull_game_kkt_is_compact(self):
        # C2F8 seed 0: pairs only for the hulls' inequality rows, free
        # multipliers for their equalities, no unit pin rows
        game = build_game(gen_energy(GenConfig(seed=0, countries=2, followers=(8, 8))))
        hulls = []
        for leader in game.leaders:
            sel = LeaderPieces(leader_feasible_set(leader), None, Deadline())
            sel.extend()
            hulls.append(sel.hull())
        s, lay = kkt_system(_assemble_hull_game(game, hulls).game)
        assert s.num_pairs == sum(h.a.shape[0] for h in hulls)
        assert s.a.shape[0] == 0
        assert s.a_eq.shape[0] == game.n_market + sum(
            h.num_vars + h.a_eq.shape[0] for h in hulls
        )
        assert s.n == s.a_eq.shape[0] + s.num_pairs
        # the search model: the equalities and one row per pair
        assert PieceRows(s).lp.m == s.n

    def test_c2f8_seed_1_is_certified(self):
        game = build_game(gen_energy(GenConfig(seed=1, countries=2, followers=(8, 8))))
        rep = full_enumeration(game)
        assert rep.status in ("MNE", "PNE")
        assert rep.pieces_per_leader == (96, 440)
        assert deviation_check(game, rep.profile) == [None, None]


LADDER = [(2, 4), (2, 6), (2, 8), (3, 4), (3, 6)]


def _recording_solves(monkeypatch) -> list[RangedLp]:
    """The model of every ``RangedLp.solve`` call from here on."""
    solved = []
    solve = RangedLp.solve

    def recorded(lp, *args, **kwargs):
        solved.append(lp)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(RangedLp, "solve", recorded)
    return solved


def _recording_hulls(monkeypatch) -> list[int]:
    """The piece count of every hull the solver lifts from here on."""
    sizes = []

    def recorded(rows, encodings, points):
        sizes.append(len(encodings))
        return balas_hull(rows, encodings, points)

    monkeypatch.setattr(algorithms, "balas_hull", recorded)
    return sizes


def _recording_masters(monkeypatch) -> list[tuple[int, ...]]:
    """Per leader, the pieces in the restricted planner at each of its
    solves from here on."""
    sizes = []
    equilibrium = algorithms.RestrictedPlanner.equilibrium

    def recorded(master, deadline):
        out = equilibrium(master, deadline)
        sizes.append(tuple(len(h.points) for h in master.hulls))
        return out

    monkeypatch.setattr(algorithms.RestrictedPlanner, "equilibrium", recorded)
    return sizes


class TestColumnGeneration:
    @pytest.mark.parametrize("countries, followers", LADDER)
    def test_ladder_profiles_are_certified_and_match_the_one_shot_hull_game(
        self, countries, followers
    ):
        for seed in range(3):
            game = build_game(
                gen_energy(GenConfig(seed=seed, countries=countries, followers=(followers,) * 2))
            )
            rep = full_enumeration(game)
            # the one-shot hull game: the planner LP over every piece, whose
            # value is the leaders' summed payoff, as clearing makes the
            # price terms sum to 0
            selections = []
            assert algorithms._start(game, None, math.inf, Deadline(), selections)
            _, _, status, value = _one_shot(game, selections)
            assert status is LpStatus.OPTIMAL and rep.status in ("MNE", "PNE")
            assert rep.pieces_per_leader == tuple(len(sel.pieces) for sel in selections)
            assert sum(rep.objective_values) == pytest.approx(value, rel=1e-6)
            assert deviation_check(game, rep.profile) == [None] * countries

    def test_a_piece_whose_point_beats_the_bound_enters_without_an_lp(self, monkeypatch):
        # split interval pieces: (0, 1) is xi in [1, 5], (1, 0) is xi in
        # [-5, -1]; min xi there is below 0 already at the piece's point
        sel = LeaderPieces(split_interval_set(), None, Deadline())
        sel.extend(1)
        solved = _recording_solves(monkeypatch)
        value, point = sel.enter(np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
        assert value == point[0] <= -1.0
        assert sel.encodings == [(0, 1), (1, 0)]
        # only the entering piece's singleton test solves an LP
        assert all(lp is sel.rows.cone for lp in solved)

    def test_the_lp_scan_finds_a_piece_whose_point_does_not_beat_the_bound(self, monkeypatch):
        sel = LeaderPieces(split_interval_set(), None, Deadline())
        sel.extend(1)
        w = np.array([-1.0, 0.0, 0.0, 0.0])  # max xi: 1 at xi = -1 on (1, 0)
        assert sel.pieces[1][1] @ w == pytest.approx(5.0)  # its point: xi = -5
        solved = _recording_solves(monkeypatch)
        value, point = sel.enter(w, 3.0)
        assert value == pytest.approx(1.0) and point[0] == pytest.approx(-1.0)
        assert sel.encodings == [(0, 1), (1, 0)]
        assert solved.count(sel.rows.lp) == 1

    def test_the_scan_finds_nothing_when_no_piece_beats_the_bound(self, monkeypatch):
        sel = LeaderPieces(split_interval_set(), None, Deadline())
        sel.extend(1)
        solved = _recording_solves(monkeypatch)
        assert sel.enter(np.array([-1.0, 0.0, 0.0, 0.0]), 0.5) is None
        assert sel.encodings == [(0, 1)]
        assert solved == [sel.rows.lp]  # the one piece left out, by its LP
        sel.extend()
        assert sel.enter(np.array([1.0, 0.0, 0.0, 0.0]), 100.0) is None  # nothing left out

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_piece_the_last_scan_skips_has_its_minimum_at_the_bound(
        self, monkeypatch, seed
    ):
        # C2F8: the last scan of each leader runs the LP of few of the
        # pieces left out; row duals of those LPs prove the others no better
        solved = _recording_solves(monkeypatch)
        scans = {}
        enter = LeaderPieces.enter

        def recorded(sel, w, bound):
            left = [e for e, _ in sel.pieces if e not in sel.included]
            start = len(solved)
            out = enter(sel, w, bound)
            lps = sum(lp is sel.rows.lp for lp in solved[start:])
            scans[id(sel)] = (sel, w, bound, left, lps, out)
            return out

        monkeypatch.setattr(LeaderPieces, "enter", recorded)
        assert full_enumeration(_energy_game(seed, 8)).status in ("MNE", "PNE")
        assert len(scans) == 2
        for sel, w, bound, left, lps, out in scans.values():
            assert out is None and lps < len(left)
            fresh = PieceRows(sel.rows.set).lp
            fresh.set_objective(w)
            for encoding in left:
                fresh.move_to(*sel.rows.pin_bounds(enumerate(encoding)))
                status, _, value = fresh.solve()
                assert status is LpStatus.OPTIMAL and value >= bound

    def test_duals_kept_from_an_earlier_scan_cover_pieces_under_a_new_objective(self):
        # split interval (xi, chi, mu1, mu2): min -xi over (1, 0), xi in
        # [-5, -1], is 1 at xi = -1; its row duals prove -xi + mu1 >= 1 on
        # every piece with pair 0 at side 1, as mu1 >= 0, but nothing about
        # -xi - mu1, whose bound needs pair 0 at side 0 as well
        sel = LeaderPieces(split_interval_set(), None, Deadline())
        sel.extend(1)
        assert sel.enter(np.array([-1.0, 0.0, 0.0, 0.0]), 0.5) is None
        assert len(sel.duals) == 1
        y = sel.duals[0]
        assert sel._certified(y, np.array([-1.0, 0.0, 1.0, 0.0]), 0.5).tolist() == [False, True]
        assert sel._certified(y, np.array([-1.0, 0.0, 1.0, 0.0]), 2.0).tolist() == [False, False]
        assert sel._certified(y, np.array([-1.0, 0.0, -1.0, 0.0]), -10.0).tolist() == [False, False]
        # y = 0 proves -mu2 >= 0 only where side 0 of pair 1 pins mu2 at 0
        assert sel._certified(np.zeros(7), np.array([0.0, 0.0, 0.0, -1.0]), -1.0).tolist() == [
            False,
            True,
        ]

    def test_the_start_takes_the_pieces_extreme_along_the_clearing_row(self):
        # C2F8 seed 0: with only each leader's first piece the restricted
        # market cannot clear; with the extreme pieces it can
        game = _energy_game(0, 8)
        deadline = Deadline()
        selections = []
        assert algorithms._start(game, None, 1, deadline, selections)
        clearing = np.asarray(game.clearing)
        for i, sel in enumerate(selections):
            offset = game.ambient_offset(i)
            along = clearing[:, offset : offset + game.ambients[i]]
            values = [along @ x for _, x in sel.pieces]
            expected = {sel.pieces[0][0]}
            for r in range(game.n_market):
                row = [v[r] for v in values]
                expected |= {sel.pieces[int(np.argmin(row))][0], sel.pieces[int(np.argmax(row))][0]}
            assert set(sel.encodings) == expected and len(sel.encodings) == len(expected) > 1
        assert algorithms._restricted_equilibrium(game, selections, deadline) is not None
        first_only = [LeaderPieces(sel.rows.set, None, deadline) for sel in selections]
        for sel in first_only:
            sel.extend(1)
        assert algorithms._restricted_equilibrium(game, first_only, deadline) is None

    def test_no_equilibrium_comes_from_the_hull_game_over_every_piece(self, monkeypatch):
        game = gen_mne_hardness(SubsetSumInterval(q=(1, 2), p=1, t=3, r=1))
        sizes = _recording_hulls(monkeypatch)
        rep = full_enumeration(game)
        assert rep.status == "NoEquilibrium"
        # the first restricted game without equilibrium takes every piece,
        # and that hull game has none either
        empty = [t["restricted"] is None for t in rep.trace]
        assert empty.index(True) == len(empty) - 2 and empty[-1]
        assert sizes[-len(game.leaders) :] == list(rep.pieces_per_leader)
        assert sizes[0] < rep.pieces_per_leader[0]

    def test_pieces_per_leader_counts_every_enumerated_piece(self, monkeypatch):
        game = _energy_game(0, 8)
        sizes = _recording_masters(monkeypatch)
        rep = full_enumeration(game)
        assert rep.status == "PNE"
        assert rep.pieces_per_leader == (12, 720)
        assert max(k for _, k in sizes) < 720


def _one_shot(game, sels):
    """The hull game over the pieces of ``sels``, lifted and assembled
    once, and its planner LP solved: (game, its KKT layout, status, value)."""
    asm = _assemble_hull_game(game, [balas_hull(s.rows, s.encodings, s.points) for s in sels])
    lay = kkt_layout(asm.game)
    status, _, value = planner_lp(asm.game, lay).solve()
    return asm.game, lay, status, value


class TestRestrictedPlanner:
    @pytest.mark.parametrize("algorithm", ["full", "inner"])
    @pytest.mark.parametrize("countries, followers, seed", [(2, 4, 0), (2, 6, 1), (3, 4, 0)])
    def test_every_restricted_game_is_the_one_shot_planner(
        self, monkeypatch, algorithm, countries, followers, seed
    ):
        # at each solve of the grown master: the one-shot planner LP over the
        # same pieces has its value, [x; -duals] is a KKT point of the
        # assembled hull game, and a master grown in reverse order agrees
        game = build_game(
            gen_energy(GenConfig(seed=seed, countries=countries, followers=(followers,) * 2))
        )
        solved = []
        equilibrium = algorithms.RestrictedPlanner.equilibrium

        def checked(master, deadline):
            out = equilibrium(master, deadline)
            status, x, value = master.lp.solve()  # warm from its optimum: the same point
            g, lay, one_status, one_value = _one_shot(game, master.selections)
            assert status is one_status
            solved.append(status)
            if status is not LpStatus.OPTIMAL:
                return out
            assert value == pytest.approx(one_value, rel=1e-7)
            y, d = -master.lp.row_duals(), np.array(master.lp._h.getSolution().col_dual)
            hulls = master.hulls
            point = np.concatenate(
                [x[h.lifted_cols] for h in hulls]
                + [np.concatenate([y[np.concatenate(h.ineq_rows)], d[h.delta_idx]]) for h in hulls]
                + [
                    np.concatenate([y[np.concatenate(h.eq_rows)], y[h.x_cols], y[[game.total_ambient + i]]])
                    for i, h in enumerate(hulls)
                ]
                + [y[master.clearing_rows]]
            )
            assert contains(kkt_system(g)[0], point, 1e-6)
            weights = np.concatenate([h.delta_idx for h in hulls])
            assert (np.array(master.lp._h.getLp().col_lower_)[weights] == 0).all()
            reverse = algorithms.RestrictedPlanner(
                game,
                [
                    types.SimpleNamespace(rows=s.rows, encodings=s.encodings[::-1], points=s.points[::-1])
                    for s in master.selections
                ],
                Deadline(),
            )
            assert equilibrium(reverse, Deadline()) is not None
            assert reverse.lp.solve()[2] == pytest.approx(value, rel=1e-7)
            return out

        monkeypatch.setattr(algorithms.RestrictedPlanner, "equilibrium", checked)
        if algorithm == "full":
            rep = full_enumeration(game)
        else:
            rep = inner_approximation(game, ("seq", "rseq")[seed], 1, seed=0)
        assert rep.status in ("MNE", "PNE")
        assert len(solved) == rep.iterations and solved[-1] is LpStatus.OPTIMAL

    def test_games_with_a_strategy_coupling_get_no_master(self, monkeypatch):
        def no_master(*args):
            raise AssertionError("restricted planner built")

        monkeypatch.setattr(algorithms, "RestrictedPlanner", no_master)
        for game in (matching_pennies_game(), split_interval_game(), random_trivial_game(20_001)):
            assert not algorithms._meets_at_the_price(game)
            assert full_enumeration(game).status in ("MNE", "PNE", "NoEquilibrium")
            assert inner_approximation(game).status in ("MNE", "PNE", "NoEquilibrium")
        assert algorithms._meets_at_the_price(_energy_game(0, 4))
        assert algorithms._meets_at_the_price(single_leader_game())

    def test_the_market_test_agrees_with_the_stacked_coupling(self):
        # the leaders as linear players with no rows of their own: a market
        # game is one whose stacked strategy coupling K exists and is zero
        def zero_k(game):
            players = tuple(
                QuadraticPlayer(c=c, a=np.zeros((0, len(c))), b=np.zeros(0), coupling=k)
                for c, k in zip(game.objectives, game.couplings)
            )
            k = strategy_coupling(PolyhedralNashGame(players=players, clearing=game.clearing))
            return k is not None and not k.count_nonzero()

        def recoupled(game, i, change):
            couplings = list(game.couplings)
            couplings[i] = change(np.array(couplings[i], dtype=float))
            return dataclasses.replace(game, couplings=tuple(couplings))

        energy = _energy_game(0, 2)
        n = energy.total_ambient
        games = [
            matching_pennies_game(),
            split_interval_game(),
            split_interval_game(flipped=True),
            random_trivial_game(20_001),
            random_trivial_game(20_007),
            gen_pne_hardness(SubsetSumInterval(q=(1, 2), p=1, t=3, r=1)),
            cleared_market_game(),
            single_leader_game(),
            energy,
            _energy_game(1, 4),
            # sparse couplings and clearing rows
            dataclasses.replace(
                energy,
                couplings=tuple(sp.csr_matrix(k) for k in energy.couplings),
                clearing=sp.csr_matrix(energy.clearing),
            ),
            # one leader's price column off by a factor, or left out
            recoupled(energy, 0, lambda k: np.hstack([k[:, :n], 2.0 * k[:, n:]])),
            recoupled(energy, 1, lambda k: np.hstack([k[:, :n], 0.0 * k[:, n:]])),
            # a strategy coupling beside the price
            recoupled(energy, 0, lambda k: k + np.eye(*k.shape, k=energy.ambients[0])),
        ]
        games += [
            build_game(symmetric_pair(trade, tax_revenue, paradigm))
            for paradigm in PARADIGMS
            for trade in (True, False)
            for tax_revenue in (False, True)
        ]
        verdicts = [algorithms._meets_at_the_price(game) for game in games]
        assert verdicts == [zero_k(game) for game in games]
        assert verdicts[:8] == [False] * 7 + [True]
        assert verdicts[8:11] == [True] * 3 and verdicts[11:14] == [False] * 3


def _kkt_selected(game, selection) -> MixedProfile | None:
    """The selected equilibrium of the one-shot hull game by the KKT search:
    ``find_pne`` on ``_assemble_hull_game`` with ``_embed_selection``."""
    deadline = Deadline()
    selections = []
    assert algorithms._start(game, None, math.inf, deadline, selections)
    return algorithms._restricted_equilibrium(game, selections, deadline, selection)


def _planner_selected(game, selection) -> float:
    """min selection.x over the optima of the one-shot planner LP of the
    assembled hull game (``planner_lp``), with one row c.x <= OPT +
    ``PLANNER_SLACK`` added."""
    deadline = Deadline()
    selections = []
    assert algorithms._start(game, None, math.inf, deadline, selections)
    asm = _assemble_hull_game(game, [sel.hull() for sel in selections])
    lp = planner_lp(asm.game, kkt_layout(asm.game))
    status, _, opt = lp.solve()
    assert status is LpStatus.OPTIMAL
    c = np.concatenate(game.objectives)
    nonzero = np.flatnonzero(c)
    cols = asm.lifted_col[nonzero]
    lp.add_rows([-INF], [opt + PLANNER_SLACK], (np.zeros(len(cols), dtype=int), cols, c[nonzero]))
    lp.set_objective(algorithms._embed_selection(asm, game, selection))
    status, _, value = lp.solve()
    assert status is LpStatus.OPTIMAL
    return value


def _selected_value(selection, profile: MixedProfile) -> float:
    return float(selection @ np.concatenate(profile.means()))


def _assert_certified(game, profile: MixedProfile) -> None:
    """No leader deviates, every support point lies in its leader's true
    set, and the market clears."""
    sets = [leader_feasible_set(l) for l in game.leaders]
    assert deviation_check(game, profile, sets=sets) == [None] * len(sets)
    for s, support in zip(sets, profile.supports):
        assert all(contains(s, pt, 1e-6) for pt, _ in support)
    assert clearing_residual(game, profile) <= REPORT_TOL


def _own_cost(game, i) -> np.ndarray:
    """Leader i's own linear cost as a selection, zero on the others."""
    out = np.zeros(game.total_ambient)
    offset = game.ambient_offset(i)
    out[offset : offset + game.ambients[i]] = game.objectives[i]
    return out


class TestSelectedMaster:
    """``full --select`` on a market game: ``full``'s column generation
    reaches the planner's value and prices, and its master then goes on
    pricing under the selection over the planner's optima (phase 2,
    ``RestrictedPlanner.selected``)."""

    @pytest.mark.parametrize(
        "countries, followers, seed",
        [(2, 2, s) for s in range(20)]
        + [(c, f, s) for c, f in LADDER for s in range(3) if (c, f) != (2, 8) or s == 2],
    )
    def test_the_master_agrees_with_the_kkt_search(self, countries, followers, seed):
        # C2F2 s0-19 and the ladder under the CLI's selection; C2F8 s0-1,
        # whose KKT searches take several seconds, are checked against the
        # one-shot planner LP below
        game = build_game(
            gen_energy(GenConfig(seed=seed, countries=countries, followers=(followers,) * 2))
        )
        selection = _selection_vector(game)
        rep = full_enumeration(game, selection)
        kkt = _kkt_selected(game, selection)
        assert (rep.profile is None) == (kkt is None)
        if kkt is not None:
            assert rep.status in ("MNE", "PNE")
            _assert_certified(game, rep.profile)
            assert _selected_value(selection, rep.profile) == pytest.approx(
                _selected_value(selection, kkt), rel=1e-6
            )

    @pytest.mark.parametrize("paradigm", PARADIGMS)
    @pytest.mark.parametrize("trade", [True, False])
    @pytest.mark.parametrize("tax_revenue", [False, True])
    def test_every_tax_paradigm_agrees_with_the_kkt_search(self, paradigm, trade, tax_revenue):
        # two identical countries under the CLI's selection; with tax
        # revenue some selected values are 0 up to rounding, hence abs
        game = build_game(symmetric_pair(trade, tax_revenue, paradigm))
        assert algorithms._meets_at_the_price(game)
        selection = _selection_vector(game)
        rep = full_enumeration(game, selection)
        kkt = _kkt_selected(game, selection)
        assert rep.status in ("MNE", "PNE") and kkt is not None
        _assert_certified(game, rep.profile)
        assert _selected_value(selection, rep.profile) == pytest.approx(
            _selected_value(selection, kkt), rel=1e-6, abs=1e-6
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_the_master_agrees_with_the_one_shot_planner_on_c2f8(self, seed):
        game = _energy_game(seed, 8)
        selection = _selection_vector(game)
        rep = full_enumeration(game, selection)
        assert rep.status in ("MNE", "PNE")
        _assert_certified(game, rep.profile)
        assert _selected_value(selection, rep.profile) == pytest.approx(
            _planner_selected(game, selection), rel=1e-6
        )

    @pytest.mark.parametrize("seed, followers", [(0, 8), (2, 10)])
    def test_the_master_never_holds_every_piece(self, monkeypatch, seed, followers):
        # C2F8 s0 has 732 pieces and C2F10 s2 2 376; both phases grow one
        # master by the few that price out
        included = []
        include = algorithms.RestrictedPlanner.include

        def counted(master, i, rows, encodings, points):
            included.append(len(encodings))
            return include(master, i, rows, encodings, points)

        monkeypatch.setattr(algorithms.RestrictedPlanner, "include", counted)
        game = _energy_game(seed, followers)
        rep = full_enumeration(game, _selection_vector(game))
        assert rep.status in ("MNE", "PNE")
        assert sum(included) < sum(rep.pieces_per_leader)

    @pytest.mark.parametrize(
        "seed, selection, value",
        [(4, lambda g: _own_cost(g, 1), 2200.0), (18, lambda g: np.ones(g.total_ambient), 749.118)],
        ids=["s4-own-cost-1", "s18-ones"],
    )
    def test_phase_two_enters_a_piece_that_prices_out_under_the_selection(
        self, monkeypatch, seed, selection, value
    ):
        # C2F2: the planner optimum least under the selection needs a piece
        # that no restricted game of the first phase priced out
        sizes = []
        selected = algorithms.RestrictedPlanner.selected

        def recorded(master, selection, profile):
            before = sum(len(h.points) for h in master.hulls)
            out = selected(master, selection, profile)
            sizes.append((before, sum(len(h.points) for h in master.hulls)))
            return out

        monkeypatch.setattr(algorithms.RestrictedPlanner, "selected", recorded)
        game = _energy_game(seed, 2)
        selection = selection(game)
        rep = full_enumeration(game, selection)
        [(before, after)] = sizes
        assert after > before
        _assert_certified(game, rep.profile)
        found = _selected_value(selection, rep.profile)
        assert found == pytest.approx(_planner_selected(game, selection), rel=1e-6)
        assert found == pytest.approx(value, rel=1e-6)

    @pytest.mark.parametrize("seed", [0, 7, 18, 19])
    def test_each_leaders_own_cost_agrees_with_the_kkt_search(self, seed):
        # instances whose KKT searches end within a fraction of a second
        # under each leader's own cost; on C2F2 s0 the master finds a pure
        # point and the KKT search a mixed one of the same value
        game = _energy_game(seed, 2)
        for i in range(len(game.leaders)):
            selection = _own_cost(game, i)
            rep = full_enumeration(game, selection)
            kkt = _kkt_selected(game, selection)
            assert (rep.profile is None) == (kkt is None)
            if kkt is not None:
                _assert_certified(game, rep.profile)
                assert _selected_value(selection, rep.profile) == pytest.approx(
                    _selected_value(selection, kkt), rel=1e-6
                )

    def test_an_unbounded_selection_raises_at_once(self):
        # the KKT search of the one-shot hull game ran out any budget here
        game = _energy_game(0, 2)
        selection = np.random.default_rng(0).normal(size=game.total_ambient)
        t0 = time.perf_counter()
        with pytest.raises(LpError, match="unbounded over the equilibrium set"):
            full_enumeration(game, selection, budget=10)
        assert time.perf_counter() - t0 < 5

    def test_an_empty_or_unbounded_master_is_no_equilibrium(self):
        # boxes [0, 1] and [2, 3] that the clearing row x_1 = x_2 cannot
        # meet, and one leader who gains without limit; the KKT search
        # finds no equilibrium either
        def boxed(name, lo, hi):
            box = np.array([[-1.0], [1.0]])
            return StackelbergLeader(name=name, n_leader=1, poly_a=box, poly_b=np.array([-lo, hi]))

        empty = MultiLeaderGame(
            leaders=(boxed("a", 0.0, 1.0), boxed("b", 2.0, 3.0)),
            objectives=(np.array([1.0]), np.array([-2.0])),
            couplings=(np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, -1.0]])),
            clearing=np.array([[1.0, -1.0]]),
        )
        ray = StackelbergLeader(
            name="ray", n_leader=1, poly_a=np.array([[-1.0]]), poly_b=np.zeros(1)
        )
        unbounded = MultiLeaderGame(
            leaders=(ray,), objectives=(np.array([-1.0]),), couplings=(None,)
        )
        for game in (empty, unbounded):
            assert algorithms._meets_at_the_price(game)
            selection = np.ones(game.total_ambient)
            assert full_enumeration(game, selection).status == "NoEquilibrium"
            assert _kkt_selected(game, selection) is None


def _interval_hull() -> HullFormulation:
    mk = lambda lo, hi: ComplementaritySet(np.array([[1.0], [-1.0]]), np.array([hi, -lo]))
    return hull_of([mk(0.0, 1.0), mk(2.0, 3.0)])


class TestDecomposeMixed:
    def test_singleton_support(self):
        hull = _interval_hull()
        lifted = np.zeros(hull.num_vars)
        lifted[hull.copy_slice(0)] = 0.5
        lifted[hull.delta_index(0)] = 1.0
        lifted[hull.agg_slice] = 0.5
        sup = decompose_mixed(lifted, hull)
        assert len(sup) == 1
        assert sup[0][0] == pytest.approx([0.5])
        assert sup[0][1] == pytest.approx(1.0)

    def test_even_split_of_two_points(self):
        point = lambda v: ComplementaritySet(
            np.array([[1.0], [-1.0]]), np.array([v, -v])
        )
        hull = hull_of([point(0.0), point(1.0)])
        # single-point pieces carry no copy block, only their weight
        assert hull.num_copies == 0
        lifted = np.zeros(hull.num_vars)
        lifted[hull.delta_index(0)] = 0.5
        lifted[hull.delta_index(1)] = 0.5
        lifted[hull.agg_slice] = 0.5
        sup = decompose_mixed(lifted, hull)
        assert [float(pt[0]) for pt, _ in sup] == pytest.approx([0.0, 1.0])
        assert [p for _, p in sup] == pytest.approx([0.5, 0.5])

    def test_uneven_weights_divide_out(self):
        hull = _interval_hull()
        lifted = np.zeros(hull.num_vars)
        lifted[hull.copy_slice(0)] = 0.25 * 1.0
        lifted[hull.copy_slice(1)] = 0.75 * 2.0
        lifted[hull.delta_index(0)] = 0.25
        lifted[hull.delta_index(1)] = 0.75
        lifted[hull.agg_slice] = 1.75
        sup = decompose_mixed(lifted, hull)
        assert [float(pt[0]) for pt, _ in sup] == pytest.approx([1.0, 2.0])
        assert [p for _, p in sup] == pytest.approx([0.25, 0.75])
        agg = sum(p * pt for pt, p in sup)
        assert agg == pytest.approx([1.75], abs=1e-12)

    def test_degenerate_weights_raise(self):
        hull = _interval_hull()
        lifted = np.zeros(hull.num_vars)
        with pytest.raises(DegenerateWeight):
            decompose_mixed(lifted, hull)


class TestDeviationCheck:
    def test_equilibrium_has_no_deviation(self):
        g = split_interval_game(flipped=True)
        rep = full_enumeration(g)
        assert deviation_check(g, rep.profile) == [None, None]

    def test_restricted_candidate_deviates_on_true_set(self):
        # candidate from the [1,5]-restricted game, checked on the true set
        g = split_interval_game()
        candidate = MixedProfile(
            supports=(
                ((np.array([0.0]), 1.0),),
                ((np.array([1.0, 0.0, 0.0, 1.0]), 1.0),),
            )
        )
        devs = deviation_check(g, candidate)
        assert devs[0] is None
        assert devs[1] is not None
        assert devs[1].point[0] == pytest.approx(-5.0, abs=1e-7)
        assert devs[1].improvement == pytest.approx(6.0, abs=1e-6)

    def test_single_leader_optimum_clean(self):
        g = single_leader_game()
        rep = full_enumeration(g)
        assert deviation_check(g, rep.profile) == [None]

    def test_unbounded_best_response_is_a_deviation(self):
        # line player facing a negative mean price has no best response
        g = split_interval_game()
        candidate = MixedProfile(
            supports=(
                ((np.array([0.0]), 1.0),),
                ((np.array([-5.0, 4.0, 1.0, 0.0]), 1.0),),
            )
        )
        devs = deviation_check(g, candidate)
        assert devs[0] is not None and devs[0].ray is not None
        assert devs[0].improvement == np.inf


class TestInnerApproximation:
    def test_original_game_trace(self):
        rep = inner_approximation(split_interval_game(), "seq", 1, 0)
        assert rep.status == "NoEquilibrium"
        first = rep.trace[0]
        assert first["restricted"] is not None
        assert first["restricted"].mean(0) == pytest.approx([0.0], abs=1e-6)
        assert first["restricted"].mean(1)[0] == pytest.approx(1.0, abs=1e-6)
        dev = first["deviations"][1]
        assert dev is not None and dev.point[0] == pytest.approx(-5.0, abs=1e-7)

    def test_flipped_game_recovers_after_empty_restriction(self):
        # rseq starts from the [-5,-1] piece where no equilibrium exists
        rep = inner_approximation(split_interval_game(flipped=True), "rseq", 1, 0)
        assert rep.status == "PNE"
        assert rep.iterations == 2
        assert rep.trace[0]["restricted"] is None
        assert rep.profile.mean(1)[0] == pytest.approx(5.0, abs=1e-6)

    @pytest.mark.parametrize("strategy", ["seq", "rseq", "rand"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_full_enumeration_status(self, strategy, k):
        for game in (matching_pennies_game(), split_interval_game(flipped=True)):
            full = full_enumeration(game)
            inner = inner_approximation(game, strategy, k, seed=3)
            assert inner.status in ("MNE", "PNE")
            assert full.status in ("MNE", "PNE")


    @pytest.mark.parametrize("followers", [6, 8])
    def test_lazy_order_is_enumeration_order_and_its_reverse(self, followers):
        game = build_game(gen_energy(GenConfig(seed=0, countries=2, followers=(followers, followers))))
        for i, leader in enumerate(game.leaders):
            s = leader_feasible_set(leader)
            eager = [e for e, _ in enumerate_pieces(PieceRows(s))]
            order = {
                strategy: [
                    e for e, _ in LeaderPieces(s, strategy, Deadline(), Lcg(0).split(i)).pending
                ]
                for strategy in ("seq", "rseq", "rand")
            }
            assert order["seq"] == eager
            assert order["rseq"] == eager[::-1]
            assert sorted(order["rand"]) == eager

    def test_add_rejects_empty_and_included_pieces(self):
        state = LeaderPieces(split_interval_set(), "seq", Deadline())
        assert state.extend(1) == 1
        assert state.included == {(0, 1)}
        assert not state.add((0, 1))  # already included
        assert not state.add((0, 0)) and not state.add((1, 1))  # empty pieces
        assert state.included == {(0, 1)}
        assert state.add((1, 0))
        assert state.exhausted
        assert state.extend(1) == 0
        assert state.found == {(0, 1), (1, 0)}
        assert state.encodings == [(0, 1), (1, 0)]
        assert len(state.points) == 2

    def test_add_runs_within_the_deadline(self):
        state = LeaderPieces(split_interval_set(), "seq", Deadline(0.0))
        with pytest.raises(TimeLimitReached):
            state.add((1, 0))

    def test_lazy_orders_run_past_the_enumeration_cap(self):
        # 13 producers per country: 26 pairs per leader, above ENUM_CAP
        game = build_game(gen_energy(GenConfig(seed=1, countries=2, followers=(13, 13))))
        assert all(leader_feasible_set(l).num_pairs > ENUM_CAP for l in game.leaders)
        assert inner_approximation(game, "seq", 1, seed=0).status == "MNE"
        with pytest.raises(TooManyComplementarities):
            inner_approximation(game, "rand", 1, seed=0)

    def test_pieces_per_leader_counts_pieces_found(self):
        game = build_game(gen_energy(GenConfig(seed=0, countries=2, followers=(8, 8))))
        total = (12, 720)
        for strategy in ("seq", "rseq"):
            rep = inner_approximation(game, strategy, 1, seed=0)
            assert rep.status in ("MNE", "PNE")
            assert all(0 < c < t for c, t in zip(rep.pieces_per_leader, total))
        assert inner_approximation(game, "rand", 1, seed=0).pieces_per_leader == total

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            inner_approximation(split_interval_game(), "backwards")

    def test_budget_cut_reports_the_iterations_and_pieces_reached(self, monkeypatch):
        # the budget runs out as the first deviation's piece is added: the
        # second iteration's clock read ends the solve, which keeps its
        # trace and the pieces found so far
        add = LeaderPieces.add

        def add_then_expire(self, encoding):
            added = add(self, encoding)
            self.rows.deadline.seconds = 0.0
            return added

        monkeypatch.setattr(LeaderPieces, "add", add_then_expire)
        rep = inner_approximation(split_interval_game(), "seq", 1, seed=0, budget=60.0)
        assert rep.status == "TimeLimit" and rep.profile is None
        assert rep.iterations == 2 and len(rep.trace) == 1
        assert rep.trace[0]["deviations"][1] is not None
        assert rep.pieces_per_leader == (1, 2)

    def test_refused_deviation_piece_falls_back_to_the_next_pending_one(self, monkeypatch):
        events = []
        extend = LeaderPieces.extend

        def refusing(self, encoding):
            events.append(("refused", self))
            return False

        def spied(self, count=math.inf):
            added = extend(self, count)
            events.append(("extended", self, count, added))
            return added

        monkeypatch.setattr(LeaderPieces, "add", refusing)
        monkeypatch.setattr(LeaderPieces, "extend", spied)
        game = random_trivial_game(4)
        rep = inner_approximation(game, "seq", 1, seed=0)
        assert rep.status == "PNE"
        assert deviation_check(game, rep.profile) == [None, None]
        refused = [i for i, e in enumerate(events) if e[0] == "refused"]
        assert refused
        for i in refused:
            assert events[i + 1] == ("extended", events[i][1], 1, 1)

    def test_deviation_with_nothing_pending_is_a_numerical_failure(self, monkeypatch):
        # every piece is in from the start, and a deviation is reported
        # anyway: its piece is refused and none is left to include
        monkeypatch.setattr(LeaderPieces, "add", lambda self, encoding: False)
        monkeypatch.setattr(
            algorithms,
            "deviation_check",
            lambda game, profile, rows: [
                Deviation(0, 1.0, point=profile.mean(0)),
                None,
            ],
        )
        with pytest.raises(NumericalFailure, match="no piece left"):
            inner_approximation(matching_pennies_game(), "seq", 10, seed=0)


class TestPureEnumeration:
    def test_budget_holds_on_a_slow_search(self):
        # the subset-sum game q=(1, 2, 3), p=1, t=3, r=1 is not a market
        # game, so its pure search is the KKT search of its hull game: on a
        # 2-vCPU Xeon VM about 0.6 s first-found and 0.27 s selected without
        # a budget, once its pieces are enumerated (about 0.07 s); each
        # budget is about half the search's time and twice the enumeration's
        game = gen_pne_hardness(SubsetSumInterval(q=(1, 2, 3), p=1, t=3, r=1))
        assert not algorithms._meets_at_the_price(game)
        for selection, budget in ((None, 0.3), (_selection_vector(game), 0.15)):
            t0 = time.perf_counter()
            rep = pure_enumeration(game, selection=selection, budget=budget)
            elapsed = time.perf_counter() - t0
            assert rep.status == "TimeLimit"
            assert elapsed <= budget + 0.25
            assert all(c > 0 for c in rep.pieces_per_leader)  # counts reached, kept
        # C2F3 s2, which once ran past 60 s selected, is decided in both modes
        market = _energy_game(2, 3)
        for selection in (None, _selection_vector(market)):
            assert pure_enumeration(market, selection, budget=5).status == "NoEquilibrium"

    @pytest.mark.parametrize("seed", [10, 13])
    def test_both_modes_decide_the_stalled_seeds(self, seed):
        # each mode once stalled past 30 s on one of these seeds (s10
        # first-found, s13 select) while the other mode decided it at once
        game = _energy_game(seed, 2)
        sets = [leader_feasible_set(l) for l in game.leaders]
        for selection in (None, _selection_vector(game)):
            rep = pure_enumeration(game, selection=selection, budget=10)
            assert rep.status in ("PNE", "NoEquilibrium")
            if rep.profile is not None:
                assert deviation_check(game, rep.profile, sets=sets) == [None] * len(sets)
                for s, sup in zip(sets, rep.profile.supports):
                    assert all(contains(s, pt, 1e-6) for pt, _ in sup)

    def test_lp_time_limit_ends_the_solve(self, monkeypatch):
        # the clock is never read between nodes, so the budget can only
        # end the solve through the time limit of a HiGHS run: here the
        # root LP of the KKT search of C2F8 s0's one-shot hull game with
        # binary weights, one run of about 1.9 s that starts once the pieces
        # are enumerated and the KKT system assembled (about 0.35 s in)
        monkeypatch.setattr(Deadline, "check", lambda self: None)
        game = _energy_game(0, 8)
        budget = 1.4
        t0 = time.perf_counter()
        rep = algorithms._enumeration(game, None, budget, pure=True)
        elapsed = time.perf_counter() - t0
        assert rep.status == "TimeLimit"
        assert elapsed <= budget + 0.25
        assert all(c > 0 for c in rep.pieces_per_leader)

    # RangedLp.solve calls of whole solves (enumeration, singleton tests,
    # branch-and-bound or planner LPs, the pricing of full and inner: the
    # scan's piece LPs or the deviation checks, and the deviation checks
    # that certify a pure answer).  HiGHS runs with threads=1 and
    # random_seed=0, so a count is fixed for one HiGHS build; these were
    # measured on SciPy 1.17.1.
    PINNED_SCIPY = "1.17.1"
    # the solve behind a pin, by the last word of its name; any other
    # name is a first-found pure solve
    PINNED_RUNS = {
        "select": lambda g: pure_enumeration(g, selection=_selection_vector(g)),
        "full": full_enumeration,
        "rseq": lambda g: inner_approximation(g, "rseq", 1, seed=0),
    }

    @pytest.mark.parametrize(
        "name, game, status, solves",
        [
            (
                "ss-no",
                lambda: gen_pne_hardness(SubsetSumInterval(q=(1, 2), p=1, t=3, r=1)),
                "NoEquilibrium",
                544,
            ),
            # a market game: the hull game's value over 2 restricted games
            # (lazy enumeration, singleton tests, master solves and deviation
            # best responses, 36 LPs), then a search of the leaders' own sets
            # that finds no planner optimum in them (13 LPs)
            (
                "C2F2s8-first",
                lambda: build_game(gen_energy(GenConfig(seed=8, countries=2, followers=(2, 2)))),
                "NoEquilibrium",
                49,
            ),
            # the same, selected: the value (19 LPs), whose profile is pure
            # and so already certified, then the search under the selection
            # (9), which finds no point that the selection ranks below it
            ("C2F2s0-select", lambda: _energy_game(0, 2), "PNE", 28),
            # enumeration (72 LPs; dual rays prune the rest of the walk), the
            # singleton tests of the 4 pieces that enter the hulls, one
            # restricted planner solve, and 20 pricing LPs for the 66 pieces
            # left out, whose row duals prove the other 46 no better
            ("C2F6s1-full", lambda: _energy_game(1, 6), "MNE", 97),
            # deviation best responses, each leader's on its set's one
            # relaxation model, warm from the last LP on it (witness or search)
            ("C2F6s1-rseq", lambda: _energy_game(1, 6), "MNE", 160),
        ],
    )
    def test_lp_solve_count_is_pinned(self, monkeypatch, name, game, status, solves):
        game = game()  # generating an instance solves LPs of its own
        run = self.PINNED_RUNS.get(name.rsplit("-", 1)[-1], pure_enumeration)
        solved = _recording_solves(monkeypatch)
        assert run(game).status == status
        if scipy.__version__ == self.PINNED_SCIPY:
            assert len(solved) == solves
        else:  # another HiGHS build pivots differently; only the answer is fixed
            assert len(solved) > 0

    def test_inner_model_builds_are_pinned(self, monkeypatch):
        # inner C2F6 s1 rseq, 5 iterations: per leader the one relaxation
        # model its witnesses and best responses run on and the singleton
        # cone model, and one restricted planner grown in place (7 builds
        # with a separate model for the best responses, 13 when each
        # restricted game and each best response built its own)
        game = _energy_game(1, 6)
        builds, selections, masters = [], [], []
        init = RangedLp.__init__
        leader_init = LeaderPieces.__init__
        master_init = algorithms.RestrictedPlanner.__init__

        def counted(lp, *args, **kwargs):
            builds.append(lp)
            init(lp, *args, **kwargs)

        def kept(store, init_):
            def recorded(obj, *args, **kwargs):
                store.append(obj)
                init_(obj, *args, **kwargs)

            return recorded

        monkeypatch.setattr(RangedLp, "__init__", counted)
        monkeypatch.setattr(LeaderPieces, "__init__", kept(selections, leader_init))
        monkeypatch.setattr(
            algorithms.RestrictedPlanner, "__init__", kept(masters, master_init)
        )
        rep = inner_approximation(game, "rseq", 1, seed=0)
        assert rep.status == "MNE" and rep.iterations == 5
        # no model of a relaxation beyond each set's ``rows.lp``
        cones = [vars(sel.rows).get("cone") for sel in selections]
        relaxations = [lp for lp in builds if lp not in cones and lp is not masters[0].lp]
        assert len(masters) == 1 and relaxations == [sel.rows.lp for sel in selections]
        assert len(builds) <= 2 * len(game.leaders) + 1
        if scipy.__version__ == self.PINNED_SCIPY:
            assert len(builds) == 5

    @pytest.mark.parametrize(
        "game, status, solves",
        [
            (
                lambda: gen_pne_hardness(SubsetSumInterval(q=(1, 2), p=1, t=3, r=1)),
                "NoEquilibrium",
                844,
            ),
            (lambda: _energy_game(8, 2), "NoEquilibrium", 49),
        ],
        ids=("ss-no", "C2F2s8-first"),
    )
    def test_without_dual_rays_a_pure_solve_runs_every_walk_lp(
        self, monkeypatch, game, status, solves
    ):
        # bindings that cannot read a dual ray: the walk learns no conflict
        # and solves the LP of every node whose pin does not hold, as it
        # did before it read rays (ss-no and C2F2s8-first of the pins above;
        # the lazy walk of C2F2s8-first learns no conflict with rays either)
        game = game()
        monkeypatch.setattr(RangedLp, "dual_ray", lambda self: None)
        solved = _recording_solves(monkeypatch)
        assert pure_enumeration(game).status == status
        if scipy.__version__ == self.PINNED_SCIPY:
            assert len(solved) == solves

    @pytest.mark.parametrize("seed", range(20))
    def test_the_market_search_agrees_with_the_kkt_search(self, seed):
        # C2F2 seeds 0-19 first-found and 0-9 selected: the status of the
        # KKT search of the one-shot hull game with binary weights, its
        # selected value, and every PNE certified against the true sets
        game = _energy_game(seed, 2)
        sets = [leader_feasible_set(l) for l in game.leaders]
        for selection in (None, _selection_vector(game))[: 2 if seed < 10 else 1]:
            rep = pure_enumeration(game, selection)
            kkt = algorithms._enumeration(game, selection, None, pure=True)
            assert rep.status == kkt.status
            if rep.profile is None:
                continue
            assert rep.status == "PNE" and rep.profile.is_pure()
            assert deviation_check(game, rep.profile, sets=sets) == [None, None]
            for s, support in zip(sets, rep.profile.supports):
                assert all(contains(s, pt, 1e-6) for pt, _ in support)
            assert clearing_residual(game, rep.profile) <= REPORT_TOL
            if selection is not None:
                value = [float(selection @ np.concatenate(r.profile.means())) for r in (rep, kkt)]
                assert value[0] == pytest.approx(value[1], rel=1e-6)

    def test_the_search_set_is_the_leaders_sets_side_by_side(self):
        # C2F8 s0: each leader's rows and pairs on its own block, the
        # clearing rows as equalities and one planner-value row last; the
        # PNE found lies in it
        game = _energy_game(0, 8)
        sets = [leader_feasible_set(l) for l in game.leaders]
        rep = pure_enumeration(game)
        x = np.concatenate(rep.profile.means())
        c = np.concatenate(game.objectives)
        s = algorithms._equilibrium_set(game, sets, c, float(c @ x))
        assert s.n == game.total_ambient
        assert s.a.shape[0] == sum(t.a.shape[0] for t in sets) + 1
        assert s.a_eq.shape[0] == sum(t.a_eq.shape[0] for t in sets) + game.n_market
        assert s.comp == sets[0].comp + tuple(sets[0].n + j for j in sets[1].comp)
        assert np.array_equal(s.a[-1].toarray().ravel(), c) and s.b[-1] == float(c @ x)
        assert contains(s, x, 1e-6)
        for i, t in enumerate(sets):
            block = slice(game.ambient_offset(i), game.ambient_offset(i) + t.n)
            assert contains(t, x[block], 1e-6)

    def test_a_market_game_is_decided_without_the_hull_game(self, monkeypatch):
        def refused(*args):
            raise AssertionError("one-shot hull game assembled")

        monkeypatch.setattr(algorithms, "_assemble_hull_game", refused)
        monkeypatch.setattr(nashgame, "kkt_system", refused)
        for seed, followers, status in ((0, 2, "PNE"), (8, 2, "NoEquilibrium"), (0, 8, "PNE")):
            game = _energy_game(seed, followers)
            for selection in (None, _selection_vector(game)):
                assert pure_enumeration(game, selection).status == status

    def test_the_budget_reaches_the_market_search(self, monkeypatch):
        # C2F2 s8's hull game has a mixed equilibrium, so the search runs;
        # a budget that runs out while its set is built ends the solve there
        build = algorithms._equilibrium_set

        def slow(*args):
            time.sleep(0.3)
            return build(*args)

        monkeypatch.setattr(algorithms, "_equilibrium_set", slow)
        t0 = time.perf_counter()
        rep = pure_enumeration(_energy_game(8, 2), budget=0.2)
        assert rep.status == "TimeLimit"
        assert time.perf_counter() - t0 <= 0.3 + 0.25
        assert rep.pieces_per_leader == (2, 2)

    def test_a_market_game_past_the_enumeration_cap_is_decided(self):
        # 14 producers per country: 28 pairs per leader, above ENUM_CAP,
        # which the lazy value step does not reach
        game = _energy_game(0, 14)
        assert all(leader_feasible_set(l).num_pairs > ENUM_CAP for l in game.leaders)
        rep = pure_enumeration(game, budget=30)
        assert rep.status == "PNE"
        assert deviation_check(game, rep.profile) == [None, None]

    def test_a_deviation_from_the_answer_is_a_numerical_failure(self, monkeypatch):
        # the check that certifies the answer of the one-shot hull game
        # (pure or full with a selection on a game that is not a market game,
        # full with a selection on the planner LP of one that is) reports a
        # deviation: the solve fails instead of returning it
        monkeypatch.setattr(
            algorithms,
            "deviation_check",
            lambda game, profile, rows: [None, Deviation(1, 1.0)],
        )
        game = split_interval_game(flipped=True)
        with pytest.raises(NumericalFailure, match="leader 1 deviates"):
            pure_enumeration(game)
        for game in (game, _energy_game(0, 2)):
            with pytest.raises(NumericalFailure, match="leader 1 deviates"):
                full_enumeration(game, selection=np.ones(game.total_ambient))

    def test_a_deviation_from_the_market_search_point_is_a_numerical_failure(
        self, monkeypatch
    ):
        # the value step's deviation checks run as they are; the check of the
        # point the selected search found below the hull game's pure profile
        # reports a deviation
        searched = []
        build = algorithms._equilibrium_set
        monkeypatch.setattr(
            algorithms, "_equilibrium_set", lambda *args: searched.append(1) or build(*args)
        )
        check = algorithms.deviation_check

        def stub(game, profile, rows):
            if searched:
                return [None, Deviation(1, 1.0)]
            return check(game, profile, rows=rows)

        monkeypatch.setattr(algorithms, "deviation_check", stub)
        game = _energy_game(7, 2)
        with pytest.raises(NumericalFailure, match="leader 1 deviates"):
            pure_enumeration(game, _selection_vector(game))
        assert searched

    def test_matching_pennies_has_no_pure_equilibrium(self):
        assert pure_enumeration(matching_pennies_game()).status == "NoEquilibrium"

    def test_flipped_game_pure(self):
        rep = pure_enumeration(split_interval_game(flipped=True))
        assert rep.status == "PNE"
        assert rep.profile.mean(1)[0] == pytest.approx(5.0, abs=1e-6)

    def test_single_leader_constrained_optimum(self):
        rep = pure_enumeration(single_leader_game())
        assert rep.status == "PNE"
        assert rep.profile.mean(0) == pytest.approx([1.0], abs=1e-7)

    def test_pure_point_lies_in_original_set(self):
        g = split_interval_game(flipped=True)
        rep = pure_enumeration(g)
        for i, sup in enumerate(rep.profile.supports):
            s = leader_feasible_set(g.leaders[i])
            for pt, _ in sup:
                assert contains(s, pt, 1e-6)


class TestRandomGames:
    @given(st.integers(0, 14))
    @settings(max_examples=15)
    def test_certification_and_agreement(self, seed):
        game = random_trivial_game(20_000 + seed)
        full = full_enumeration(game, budget=60)
        assert full.status in ("MNE", "PNE", "NoEquilibrium")
        if full.profile is not None:
            devs = deviation_check(game, full.profile)
            assert devs == [None] * 2
            for sup in full.profile.supports:
                assert sum(p for _, p in sup) == pytest.approx(1.0, abs=1e-9)
        inner = inner_approximation(game, "seq", 1, seed=0, budget=60)
        assert inner.status == full.status or {inner.status, full.status} <= {"MNE", "PNE"}

    @given(st.integers(0, 9))
    @settings(max_examples=10)
    def test_pure_implies_mixed_exists(self, seed):
        game = random_trivial_game(21_000 + seed)
        pure = pure_enumeration(game, budget=60)
        if pure.status == "PNE":
            assert full_enumeration(game, budget=60).status != "NoEquilibrium"
