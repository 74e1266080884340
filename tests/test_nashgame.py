import numpy as np
import pytest
from hypothesis import given, strategies as st

from epecnash.nashgame import (
    NonPsdObjective,
    PolyhedralNashGame,
    QuadraticPlayer,
    find_pne,
    kkt_system,
)
from epecnash.polyhedra import contains
from epecnash.rng import Lcg

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
