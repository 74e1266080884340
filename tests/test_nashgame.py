import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from epecnash import algorithms, nashgame
from epecnash.algorithms import (
    LeaderPieces,
    _assemble_hull_game,
    full_enumeration,
    inner_approximation,
    pure_enumeration,
)
from epecnash.cli import _selection_vector
from epecnash.energy import build_game
from epecnash.generators import (
    GenConfig,
    gen_energy,
    matching_pennies_game,
    random_trivial_game,
    split_interval_game,
)
from epecnash.leadergame import leader_feasible_set
from epecnash.lp import LpStatus
from epecnash.nashgame import (
    NonPsdObjective,
    PolyhedralNashGame,
    QuadraticPlayer,
    find_pne,
    kkt_layout,
    kkt_system,
)
from epecnash.polyhedra import Deadline, PieceRows, contains, optimize_over_set
from epecnash.rng import Lcg

from tests.helpers import planner_lp

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


def _hull_game(game):
    """The hull game over every piece of every leader, lifted and
    assembled once."""
    hulls = []
    for leader in game.leaders:
        sel = LeaderPieces(leader_feasible_set(leader), None, Deadline())
        sel.extend()
        hulls.append(sel.hull())
    return _assemble_hull_game(game, hulls).game


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
                for part in ("row", "col", "data"):
                    assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


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
        g = _hull_game(_energy(seed, countries, followers))
        point = _planner_point(g)
        s, lay = kkt_system(g)
        assert point is not None and contains(s, point, 1e-6)
        search = optimize_over_set(PieceRows(s), np.zeros(s.n))
        assert search.status is LpStatus.OPTIMAL
        assert lay.market(point) == pytest.approx(lay.market(search.point), abs=1e-6)

    def test_energy_solves_never_assemble_the_kkt_system(self, monkeypatch):
        def no_kkt(*args, **kwargs):
            raise AssertionError("KKT system assembled for a planner game")

        monkeypatch.setattr(nashgame, "kkt_system", no_kkt)
        monkeypatch.setattr(algorithms, "find_pne", no_kkt)
        game = _energy(0, 2, 4)
        assert full_enumeration(game).status in ("MNE", "PNE")
        assert full_enumeration(game, _selection_vector(game)).status in ("MNE", "PNE")
        assert inner_approximation(game, "seq").status in ("MNE", "PNE")
        assert pure_enumeration(game).status == "NoEquilibrium"

    def test_games_with_a_strategy_coupling_have_none(self):
        # their leaders meet through each other's strategies, so full
        # enumeration searches their KKT systems
        games = (matching_pennies_game(), split_interval_game(), random_trivial_game(20_001))
        for game in games:
            assert _planner_of(_hull_game(game)) is None
            assert full_enumeration(game).status in ("MNE", "PNE", "NoEquilibrium")
        # nor does a skew one
        for game in (split_interval_game(flipped=True), random_trivial_game(20_007)):
            assert _planner_of(_hull_game(game)) is None
        assert _planner_of(PolyhedralNashGame(players=(_player([-1.0], *BOX01, q=[[1.0]]),))) is None

    def test_a_price_coupling_that_is_not_the_clearing_rows_has_none(self):
        # a price that enters both players' objectives as the clearing row
        # spans both strategies has a planner, whose optimum is a KKT point;
        # one that enters only one player's objective has none
        one = np.array([[1.0, 1.0]])
        priced = PolyhedralNashGame(
            players=(
                _player([0.0], *BOX01, coupling=[[0.0, 0.0, 1.0]]),
                _player([0.0], *BOX01, coupling=[[0.0, 0.0, 1.0]]),
            ),
            clearing=one,
        )
        point = _planner_point(priced)
        assert point is not None and contains(kkt_system(priced)[0], point, 1e-9)
        lopsided = PolyhedralNashGame(
            players=(priced.players[0], _player([0.0], *BOX01, coupling=[[0.0, 0.0, 0.0]])),
            clearing=one,
        )
        assert _planner_of(lopsided) is None

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
            search = optimize_over_set(PieceRows(s), np.zeros(s.n))
            assert search.status is LpStatus.INFEASIBLE
