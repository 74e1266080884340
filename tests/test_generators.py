import hashlib

import numpy as np
import pytest

from epecnash.algorithms import full_enumeration, pure_enumeration
from epecnash.energy import ProducerSpec
from epecnash.generators import (
    GenConfig,
    InvalidConfig,
    SubsetSumInterval,
    _reaches_min_supply,
    gen_energy,
    gen_mne_hardness,
    gen_pne_hardness,
    product_gadget_leader,
)
from epecnash.leadergame import leader_feasible_set
from epecnash.lp import LinearProgram, LpStatus, solve_lp
from epecnash.rng import Lcg
from epecnash.serialize import dumps, energy_to_dict, game_to_dict

from tests.helpers import pieces_of, program, untaxed_supply

YES = SubsetSumInterval(q=(1,), p=2, t=4, r=1)
NO = SubsetSumInterval(q=(1, 2), p=1, t=3, r=1)


class TestSubsetSumInterval:
    def test_oracle(self):
        assert YES.decision() is True
        assert NO.decision() is False

    def test_invariants(self):
        with pytest.raises(ValueError):
            SubsetSumInterval(q=(1,), p=1, t=4, r=1)  # t-p != 2**r
        with pytest.raises(ValueError):
            SubsetSumInterval(q=(0, 1), p=1, t=3, r=1)
        with pytest.raises(ValueError):
            SubsetSumInterval(q=(1,), p=1, t=5, r=2)  # 2**r > 2**k


class TestEnergyGenerator:
    def test_determinism(self):
        cfg = GenConfig(seed=42)
        a = dumps(energy_to_dict(gen_energy(cfg)))
        b = dumps(energy_to_dict(gen_energy(cfg)))
        assert a == b

    def test_shape(self):
        cfg = GenConfig(seed=3, countries=2, followers=(3, 3))
        inst = gen_energy(cfg)
        assert len(inst.countries) == 2
        assert all(len(c.producers) == 3 for c in inst.countries)
        for c in inst.countries:
            assert c.price_cap < c.demand_intercept
            # cost menus run against the emission ladder
            for p in c.producers:
                if p.emission_cost <= 50:
                    assert p.lin_cost >= 275
                if p.emission_cost >= 300:
                    assert p.lin_cost <= 250

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            GenConfig(seed=0, countries=1, trade=True)
        with pytest.raises(InvalidConfig):
            GenConfig(seed=0, paradigms=())
        with pytest.raises(InvalidConfig):
            GenConfig(seed=0, paradigms=("standard", "bogus"))


# sha256 of the inputs the benchmark builds (the 15 ladder instances,
# C2F2 seeds 0-9 and the criterion-8 subset-sum pair): generation must
# give the same bytes across commits and SciPy versions
BENCHMARK_INPUTS_SHA256 = "d7d1469505b79fc2a07d9724f4d4eede06ee3389adeb875a0e3a14ca66c426d6"


def _supply_at(producers, beta: float, price: float) -> float:
    return sum(
        min(max((price - p.lin_cost) / (beta + p.quad_cost), 0.0), p.capacity)
        for p in producers
    )


class TestPriceCapFilter:
    def test_closed_form_matches_the_solved_game(self):
        rng = Lcg(31)
        verdicts = set()
        for _ in range(80):
            n = 1 + rng.randint(6)
            producers = tuple(
                ProducerSpec(
                    lin_cost=rng.uniform(100.0, 320.0),
                    quad_cost=rng.uniform(0.0 if n == 1 else 0.05, 0.7),
                    capacity=rng.uniform(5.0, 150.0),
                    emission_cost=1.0,
                )
                for _ in range(n)
            )
            alpha = rng.uniform(250.0, 450.0)
            beta = rng.uniform(0.4, 1.0)
            cap = rng.uniform(0.6, 0.98) * alpha
            min_supply = (alpha - cap) / beta
            if abs(_supply_at(producers, beta, cap) - min_supply) <= 1e-9 * max(1.0, min_supply):
                continue
            expected = untaxed_supply(producers, alpha, beta) >= min_supply
            assert _reaches_min_supply(producers, alpha, beta, cap) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_price_exactly_at_the_cap_is_accepted(self):
        # two producers with linear cost 250 supply (300 - 270) / 0.9 at
        # the cap 270; the others price themselves out
        producers = tuple(
            ProducerSpec(lin_cost=lin, quad_cost=quad, capacity=1000.0, emission_cost=1.0)
            for lin, quad in [(250.0, 0.3)] * 2 + [(275.0, 0.5), (290.0, 0.55), (300.0, 0.6)] * 2
        )
        assert _reaches_min_supply(producers, 300.0, 0.9, 0.9 * 300.0)
        assert not _reaches_min_supply(producers, 300.0 + 1e-9, 0.9, 0.9 * 300.0)

    def test_generated_countries_clear_under_their_cap(self):
        configs = [GenConfig(seed=s, countries=2, followers=(1, 5)) for s in range(4)]
        configs += [GenConfig(seed=s, countries=3, followers=(3, 3), trade=False) for s in range(2)]
        for cfg in configs:
            for c in gen_energy(cfg).countries:
                supply = untaxed_supply(c.producers, c.demand_intercept, c.demand_slope)
                price = c.demand_intercept - c.demand_slope * supply
                assert price <= c.price_cap + 1e-9 * max(1.0, c.price_cap)

    def test_benchmark_inputs_unchanged(self):
        digest = hashlib.sha256()
        keys = [(c, f, s) for c, f in ((2, 4), (2, 6), (2, 8), (3, 4), (3, 6)) for s in range(3)]
        keys += [(2, 2, s) for s in range(10)]
        for c, f, s in keys:
            inst = gen_energy(GenConfig(seed=s, countries=c, followers=(f, f)))
            digest.update(dumps(energy_to_dict(inst)).encode())
        for d in (YES, NO):  # the criterion-8 pair
            digest.update(dumps(game_to_dict(gen_pne_hardness(d))).encode())
        assert digest.hexdigest() == BENCHMARK_INPUTS_SHA256


class TestHardnessGenerators:
    def test_structural_shape(self):
        g = gen_pne_hardness(YES)
        assert len(g.leaders) == 2
        for leader in g.leaders:
            assert leader.followers is not None
            assert len(leader.followers.players) == 1
            assert leader.followers.players[0].q is None  # linear follower
            leader_feasible_set(leader)  # derives without error
        k, r = 1, 1
        big_p = k + 2 * r
        assert g.leaders[0].n_leader == 2 * big_p + 1
        assert g.leaders[1].n_leader == big_p + 1

    def test_pne_round_trip_matches_oracle(self):
        assert pure_enumeration(gen_pne_hardness(YES), budget=120).status == "PNE"
        assert (
            pure_enumeration(gen_pne_hardness(NO), budget=120).status
            == "NoEquilibrium"
        )

    def test_mne_round_trip_matches_oracle(self):
        assert full_enumeration(gen_mne_hardness(YES), budget=120).status in (
            "MNE",
            "PNE",
        )
        assert (
            full_enumeration(gen_mne_hardness(NO), budget=120).status
            == "NoEquilibrium"
        )

    def test_mne_game_structure(self):
        g = gen_mne_hardness(NO)
        assert len(g.leaders) == 2
        for leader in g.leaders:
            leader_feasible_set(leader)

    def test_product_gadget_projection(self):
        lead = product_gadget_leader()
        s = leader_feasible_set(lead)
        pieces = pieces_of(s)
        assert pieces
        rng = Lcg(99)
        checked = 0
        while checked < 100:
            _, poly = pieces[rng.randint(len(pieces))]
            c = np.array([rng.uniform(-1, 1) for _ in range(s.n)])
            out = solve_lp(program(poly, c))
            if out.status is not LpStatus.OPTIMAL:
                continue
            h, y, x = out.point[0], out.point[1], out.point[2]
            assert h == pytest.approx(x * y, abs=1e-7)
            # each feasible point sits on one of the two branches
            assert (abs(y - 1) <= 1e-7 and abs(h - x) <= 1e-7) or (
                abs(y) <= 1e-7 and abs(h) <= 1e-7
            )
            checked += 1
