import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from epecnash import nashgame
from epecnash.algorithms import (
    LeaderPieces,
    _assemble_hull_game,
    full_enumeration,
    inner_approximation,
    pure_enumeration,
)
from epecnash.energy import PARADIGMS, build_game
from epecnash.generators import (
    GenConfig,
    gen_energy,
    matching_pennies_game,
    random_trivial_game,
    split_interval_game,
)
from epecnash.hotlp import RangedLp
from epecnash.leadergame import leader_feasible_set
from epecnash.lp import LpStatus
from epecnash.nashgame import (
    NonPsdObjective,
    PolyhedralNashGame,
    QuadraticPlayer,
    duality_gap,
    find_pne,
    kkt_layout,
    kkt_system,
)
from epecnash.polyhedra import Deadline, PieceRows, contains, optimize_over_set
from epecnash.rng import Lcg

from tests.helpers import planner_lp, symmetric_pair

BOX01 = (np.array([[-1.0], [1.0]]), np.array([0.0, 1.0]))


def _player(c, a, b, q=None, coupling=None):
    return QuadraticPlayer(
        c=np.asarray(c, dtype=float),
        a=np.asarray(a, dtype=float),
        b=np.asarray(b, dtype=float),
        q=None if q is None else np.asarray(q, dtype=float),
        coupling=None if coupling is None else np.asarray(coupling, dtype=float),
    )


class TestKktLcp:
    def test_single_quadratic_player(self):
        # min 1/2 x^2 - x over [0, 10]: interior stationary point x = 1
        g = PolyhedralNashGame(
            players=(
                _player([-1.0], [[-1.0], [1.0]], [0.0, 10.0], q=[[1.0]]),
            )
        )
        out = find_pne(g)
        assert out.found
        assert out.strategies()[0] == pytest.approx([1.0], abs=1e-7)

    def test_two_player_quadratic_coupling(self):
        # min x1^2 - x2*x1 and min x2^2 - x1*x2 over [0,1]^2.
        # Best responses are x1 = x2/2 and x2 = x1/2, so (0,0) is the
        # unique equilibrium (at (1,1) the upper bound would need a
        # negative multiplier, so it is not a KKT point).
        g = PolyhedralNashGame(
            players=(
                _player([0.0], *BOX01, q=[[2.0]], coupling=[[0.0, -1.0]]),
                _player([0.0], *BOX01, q=[[2.0]], coupling=[[-1.0, 0.0]]),
            )
        )
        set_, lay = kkt_system(g)
        out = find_pne(g)
        assert out.found
        assert np.concatenate(out.strategies()) == pytest.approx([0.0, 0.0], abs=1e-7)
        assert contains(set_, out.point, 1e-6)

    def test_matching_pennies_on_simplex(self):
        # Each player mixes over two outcomes; the matcher maximizes the
        # match probability, the mismatcher the opposite.  Indifference
        # forces (1/2, 1/2) for both.
        simplex = (
            np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-1.0, -1.0]]),
            np.array([0.0, 0.0, 1.0, -1.0]),
        )
        g = PolyhedralNashGame(
            players=(
                _player(
                    [0.0, 0.0], *simplex,
                    coupling=[[0, 0, -1.0, 0], [0, 0, 0, -1.0]],
                ),
                _player(
                    [0.0, 0.0], *simplex,
                    coupling=[[0, -1.0, 0, 0], [-1.0, 0, 0, 0]],
                ),
            )
        )
        out = find_pne(g)
        assert out.found
        assert np.concatenate(out.strategies()) == pytest.approx(
            [0.5, 0.5, 0.5, 0.5], abs=1e-7
        )

    def test_rejects_indefinite_q(self):
        with pytest.raises(NonPsdObjective):
            _player([0.0], *BOX01, q=[[-1.0]])


class TestFindPne:
    def test_single_lp_player(self):
        g = PolyhedralNashGame(players=(_player([-1.0], *BOX01),))
        out = find_pne(g)
        assert out.found
        assert out.strategies()[0] == pytest.approx([1.0], abs=1e-7)

    def test_halfline_vs_interval_has_no_equilibrium(self):
        # One player min xi*x over x >= 0; the other min (x+1)*xi over
        # [-5,5].  The second always answers xi = -5, which leaves the
        # first without a best response.
        g = PolyhedralNashGame(
            players=(
                _player([0.0], [[-1.0]], [0.0], coupling=[[0.0, 1.0]]),
                _player([1.0], [[-1.0], [1.0]], [5.0, 5.0], coupling=[[1.0, 0.0]]),
            )
        )
        out = find_pne(g)
        assert not out.found

    def test_selection_objective(self):
        # Two uncoupled players over [0,1]: every profile is an
        # equilibrium; selection picks the prescribed corner.
        g = PolyhedralNashGame(
            players=(_player([0.0], *BOX01), _player([0.0], *BOX01)),
        )
        out = find_pne(g, selection=np.array([1.0, -1.0]))
        assert out.found
        assert np.concatenate(out.strategies()) == pytest.approx([0.0, 1.0], abs=1e-7)


def _box_br_value(q, lin, lo, hi):
    grid = np.arange(lo, hi + 1e-12, 1e-3)
    vals = 0.5 * q * grid * grid + lin * grid
    return vals.min()


class TestGridOracle:
    @given(st.integers(0, 30))
    def test_returned_equilibria_beat_grid(self, seed):
        rng = Lcg(31000 + seed)
        players = []
        boxes = []
        qs = []
        for _ in range(2):
            q = float(rng.choice([0.0, 1.0, 2.0, 4.0]))
            hi = 1.0 + rng.randint(3)
            cross = round(rng.uniform(-5, 5), 1)
            lin = round(rng.uniform(-5, 5), 1)
            boxes.append((0.0, float(hi)))
            qs.append((q, lin, cross))
            players.append(
                _player(
                    [lin],
                    [[-1.0], [1.0]],
                    [0.0, hi],
                    q=[[q]] if q else None,
                    coupling=None,
                )
            )
        # wire the couplings (player i sees the other player's variable)
        players[0] = QuadraticPlayer(
            c=players[0].c, a=players[0].a, b=players[0].b, q=players[0].q,
            coupling=np.array([[0.0, qs[0][2]]]),
        )
        players[1] = QuadraticPlayer(
            c=players[1].c, a=players[1].a, b=players[1].b, q=players[1].q,
            coupling=np.array([[qs[1][2], 0.0]]),
        )
        g = PolyhedralNashGame(players=tuple(players))
        out = find_pne(g)
        if not out.found:
            return
        x = np.concatenate(out.strategies())
        for i in range(2):
            q, lin, cross = qs[i]
            rival = x[1 - i]
            played = 0.5 * q * x[i] ** 2 + (lin + cross * rival) * x[i]
            best = _box_br_value(q, lin + cross * rival, *boxes[i])
            assert played <= best + 1e-3


def _hull_game(game, pure=False):
    """The hull game over every piece of every leader, as ``full`` and
    ``pure`` solve it, with its binaries when ``pure``."""
    hulls = []
    for leader in game.leaders:
        sel = LeaderPieces(leader_feasible_set(leader), None, Deadline())
        sel.extend()
        hulls.append(sel.hull())
    asm = _assemble_hull_game(game, hulls)
    return asm.game, asm.binaries if pure else ()


def _gap_of(g):
    return duality_gap(g, kkt_layout(g))


def _planner_of(g):
    return planner_lp(g, kkt_layout(g))


def _planner_point(g):
    """The planner LP's optimum and its row duals (negated, as HiGHS's
    duals are d(optimum)/d(bound)) as one point over the columns of
    ``kkt_system(g)``; None when the LP has no optimum."""
    lp = _planner_of(g)
    status, x, _ = lp.solve()
    if status is not LpStatus.OPTIMAL:
        return None
    return np.concatenate([x, -lp.row_duals()])


def _energy(seed, countries, followers):
    cfg = GenConfig(seed=seed, countries=countries, followers=(followers, followers))
    return build_game(gen_energy(cfg))


class TestKktAssembly:
    @pytest.mark.parametrize("countries, followers, seed", [(2, 4, 0), (3, 6, 1)])
    def test_dense_and_csr_couplings_give_the_same_bytes(self, countries, followers, seed):
        # the energy followers' couplings are dense rows; the same game with
        # CSR couplings assembles the same system, byte for byte
        for leader in _energy(seed, countries, followers).leaders:
            g = leader.followers
            assert all(isinstance(p.coupling, np.ndarray) for p in g.players)
            csr = PolyhedralNashGame(
                players=tuple(
                    dataclasses.replace(p, coupling=sp.csr_matrix(p.coupling)) for p in g.players
                ),
                n_param=g.n_param,
            )
            dense_set, _ = kkt_system(g)
            csr_set, _ = kkt_system(csr)
            for m in ("a", "a_eq", "m_mat"):
                want, got = getattr(dense_set, m), getattr(csr_set, m)
                assert got.shape == want.shape
                for part in ("indptr", "indices", "data"):
                    assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


class TestDualityGap:
    @pytest.mark.parametrize("paradigm", PARADIGMS)
    @pytest.mark.parametrize("trade", [True, False])
    @pytest.mark.parametrize("tax_revenue", [False, True])
    def test_energy_hull_games_have_one(self, paradigm, trade, tax_revenue):
        # leaders meet only through the market price, whose coupling is
        # the clearing rows transposed
        g, _ = _hull_game(build_game(symmetric_pair(trade, tax_revenue, paradigm)))
        lay = kkt_layout(g)
        gap = duality_gap(g, lay)
        assert gap is not None
        for i, p in enumerate(g.players):
            assert gap[lay.var_slices[i]].tolist() == list(p.c)
            assert gap[lay.eq_mult_slices[i]].tolist() == list(p.b_eq)
        assert not gap[lay.market_slice].any()

    def test_games_outside_the_conditions_have_none(self):
        # matching pennies and the plain split-interval game couple their
        # leaders by a K that is not skew; the flipped game's K is skew
        assert _gap_of(_hull_game(matching_pennies_game())[0]) is None
        assert _gap_of(_hull_game(split_interval_game())[0]) is None
        assert _gap_of(_hull_game(split_interval_game(flipped=True))[0]) is not None
        # a nonzero Q, alone or beside a skew coupling
        quad = _player([-1.0], *BOX01, q=[[1.0]])
        assert _gap_of(PolyhedralNashGame(players=(quad,))) is None
        assert _gap_of(PolyhedralNashGame(players=(_player([-1.0], *BOX01),))) is not None
        skew = (
            _player([0.0], *BOX01, coupling=[[0.0, 1.0]]),
            _player([0.0], *BOX01, q=[[2.0]], coupling=[[-1.0, 0.0]]),
        )
        assert _gap_of(PolyhedralNashGame(players=skew)) is None
        linear = _player([0.0], *BOX01, coupling=[[-1.0, 0.0]])
        assert _gap_of(PolyhedralNashGame(players=(skew[0], linear))) is not None

    def test_a_price_coupling_that_is_not_the_clearing_rows_has_none(self):
        # a price that enters one player's objective while the clearing
        # row spans both strategies
        one = np.array([[1.0, 1.0]])
        priced = PolyhedralNashGame(
            players=(
                _player([0.0], *BOX01, coupling=[[0.0, 0.0, 1.0]]),
                _player([0.0], *BOX01, coupling=[[0.0, 0.0, 1.0]]),
            ),
            clearing=one,
        )
        assert _gap_of(priced) is not None and _planner_of(priced) is not None
        lopsided = PolyhedralNashGame(
            players=(priced.players[0], _player([0.0], *BOX01, coupling=[[0.0, 0.0, 0.0]])),
            clearing=one,
        )
        assert _gap_of(lopsided) is None and _planner_of(lopsided) is None

    @pytest.mark.parametrize("countries, followers", [(2, 4), (2, 6), (2, 8), (3, 4), (3, 6)])
    @pytest.mark.parametrize("seed", range(3))
    def test_gap_is_the_complementarity_sum_on_the_ladder(self, countries, followers, seed):
        # at the optimum of the guide sum_i (x_{c_i} + z_i) over the KKT
        # relaxation, and at two nodes below it that pin the pair of
        # largest product on either side
        g, _ = _hull_game(_energy(seed, countries, followers))
        s, lay = kkt_system(g)
        gap = duality_gap(g, lay)
        comp = np.array(s.comp)
        guide = np.zeros(s.n)
        np.add.at(guide, comp, 1.0)
        guide += np.asarray(s.m_mat.sum(axis=0)).ravel()
        rows = PieceRows(s)
        lp = rows.ranged(guide)
        status, x, _ = lp.solve()
        assert status is LpStatus.OPTIMAL
        worst = int(np.argmax(x[comp] * s.slacks(x)))
        points = [x]
        for side in (0, 1):
            lp.move_to(*rows.pin_bounds([(worst, side)]))
            status, y, _ = lp.solve()
            if status is LpStatus.OPTIMAL:
                points.append(y)
        assert len(points) > 1
        for y in points:
            linear = float(gap @ y)
            assert abs(float(y[comp] @ s.slacks(y)) - linear) <= 1e-6 * (1 + abs(linear))

    @pytest.mark.parametrize("seed", range(20))
    def test_search_with_and_without_the_gap_agree(self, seed):
        # on C2F2 hull games, as full (no binaries) and pure search them
        for pure in (False, True):
            g, binaries = _hull_game(_energy(seed, 2, 2), pure)
            s, lay = kkt_system(g)
            gap = duality_gap(g, lay)
            assert gap is not None
            zero = np.zeros(s.n)
            with_gap = optimize_over_set(s, zero, binaries=binaries, gap=gap)
            without = optimize_over_set(s, zero, binaries=binaries)
            assert with_gap.status is without.status, (seed, pure)
            if with_gap.status is LpStatus.OPTIMAL:
                assert contains(s, with_gap.point, 1e-6)

    def test_the_gap_search_only_edits_bounds(self, monkeypatch):
        # every node is one LP under the gap: no objective is ever set
        g, binaries = _hull_game(_energy(8, 2, 2), pure=True)
        s, lay = kkt_system(g)
        calls = []
        monkeypatch.setattr(RangedLp, "set_objective", lambda lp, c: calls.append(c))
        out = optimize_over_set(s, np.zeros(s.n), binaries=binaries, gap=duality_gap(g, lay))
        assert out.status is LpStatus.INFEASIBLE
        assert calls == []


def _priced_pair(lo, hi):
    """A seller of cost 1 and a buyer of value 2 over boxes [lo_i, hi_i]
    who trade one good at the price pi: the seller minimizes (1 - pi) v_1,
    the buyer (pi - 2) v_2, and the clearing row is v_2 - v_1 = 0."""
    players = tuple(
        _player([c], [[-1.0], [1.0]], [-l, h], coupling=[[0.0, 0.0, sign]])
        for c, l, h, sign in zip((1.0, -2.0), lo, hi, (-1.0, 1.0))
    )
    return PolyhedralNashGame(players=players, clearing=np.array([[-1.0, 1.0]]))


class TestPlanner:
    @pytest.mark.parametrize("countries, followers, seed", [(2, 4, 0), (2, 6, 1), (3, 4, 0)])
    def test_planner_point_is_a_kkt_point_with_the_search_prices(
        self, countries, followers, seed
    ):
        g, _ = _hull_game(_energy(seed, countries, followers))
        point = _planner_point(g)
        s, lay = kkt_system(g)
        assert point is not None and contains(s, point, 1e-6)
        search = optimize_over_set(s, np.zeros(s.n), gap=duality_gap(g, lay))
        assert search.status is LpStatus.OPTIMAL
        assert lay.market(point) == pytest.approx(lay.market(search.point), abs=1e-6)

    def test_energy_solves_never_assemble_the_kkt_system(self, monkeypatch):
        def no_kkt(g):
            raise AssertionError("KKT system assembled for a planner game")

        monkeypatch.setattr(nashgame, "kkt_system", no_kkt)
        game = _energy(0, 2, 4)
        assert full_enumeration(game).status in ("MNE", "PNE")
        assert inner_approximation(game, "seq").status in ("MNE", "PNE")
        assert pure_enumeration(game).status == "NoEquilibrium"

    def test_games_with_a_strategy_coupling_have_none(self):
        # their leaders meet through each other's strategies, so full
        # enumeration searches their KKT systems
        games = (matching_pennies_game(), split_interval_game(), random_trivial_game(20_001))
        for game in games:
            assert _planner_of(_hull_game(game)[0]) is None
            assert full_enumeration(game).status in ("MNE", "PNE", "NoEquilibrium")
        # a skew coupling has a duality gap, but no planner
        for game in (split_interval_game(flipped=True), random_trivial_game(20_007)):
            g, _ = _hull_game(game)
            assert _gap_of(g) is not None and _planner_of(g) is None
        assert _planner_of(PolyhedralNashGame(players=(_player([-1.0], *BOX01, q=[[1.0]]),))) is None

    def test_a_priced_pair_clears_at_the_dual_price(self):
        # both quantities reach the seller's cap 1, at a price between the
        # seller's cost and the buyer's value
        g = _priced_pair((0.0, 0.0), (1.0, 3.0))
        s, lay = kkt_system(g)
        for point in (_planner_point(g), find_pne(g).point):
            assert np.concatenate(lay.strategies(point)) == pytest.approx([1.0, 1.0], abs=1e-9)
            assert 1.0 - 1e-9 <= lay.market(point)[0] <= 2.0 + 1e-9
            assert contains(s, point, 1e-9)

    def test_empty_and_unbounded_planners_have_no_equilibrium(self):
        # boxes that the clearing row cannot meet, and one player who
        # gains without limit: in both the KKT system is empty
        empty = _priced_pair((0.0, 2.0), (1.0, 3.0))
        unbounded = PolyhedralNashGame(players=(_player([-1.0], [[-1.0]], [0.0]),))
        for g in (empty, unbounded):
            assert _planner_of(g) is not None and _planner_point(g) is None
            assert not find_pne(g).found
            s, lay = kkt_system(g)
            search = optimize_over_set(s, np.zeros(s.n), gap=duality_gap(g, lay))
            assert search.status is LpStatus.INFEASIBLE
