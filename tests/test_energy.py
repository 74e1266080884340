import numpy as np
import pytest

from epecnash.algorithms import (
    MixedProfile,
    _report,
    clearing_residual,
    deviation_check,
    full_enumeration,
    inner_approximation,
    pure_enumeration,
)
from epecnash.energy import (
    PARADIGMS,
    CountrySpec,
    EnergyInstance,
    InvalidInstance,
    ProducerSpec,
    ProfileMismatch,
    build_game,
    country_layout,
    report,
)
from epecnash.leadergame import leader_feasible_set
from epecnash.lp import NumericalFailure
from epecnash.nashgame import kkt_layout
from epecnash.polyhedra import Deadline, contains
from epecnash.tolerances import REPORT_TOL

from tests.helpers import exporting_point, symmetric_pair


def solo_instance(lin=100.0, quad=0.0, alpha=300.0, beta=0.5, cap=1000.0,
                  price_cap=250.0, tax_cap=0.0, emission=25.0, **kw):
    return EnergyInstance(
        countries=(
            CountrySpec(
                name="solo",
                producers=(ProducerSpec(lin, quad, cap, emission),),
                demand_intercept=alpha,
                demand_slope=beta,
                price_cap=price_cap,
                tax_caps=(tax_cap,),
                **kw,
            ),
        ),
        trade=False,
    )


class TestBuild:
    def test_closed_form_untaxed_monopolist(self):
        # interior first-order condition: q = (alpha - lin)/(quad + 2 beta)
        inst = solo_instance()
        rep = full_enumeration(build_game(inst))
        assert rep.status == "PNE"
        er = report(inst, rep.profile)
        assert er.countries[0].production[0] == pytest.approx(200.0, abs=1e-6)
        assert er.countries[0].price == pytest.approx(200.0, abs=1e-6)
        assert er.total_emission == pytest.approx(25.0 * 200.0, abs=1e-4)

    def test_capacity_clipping(self):
        inst = solo_instance(cap=120.0, price_cap=280.0)
        rep = full_enumeration(build_game(inst))
        er = report(inst, rep.profile)
        assert er.countries[0].production[0] == pytest.approx(120.0, abs=1e-6)

    def test_symmetric_countries_market_clears(self):
        # identical countries may still settle on an asymmetric (but
        # certified) equilibrium, so only the market-level identities
        # are asserted: flows clear and the two roles mirror exactly
        inst = symmetric_pair()
        rep = full_enumeration(build_game(inst), budget=120)
        assert rep.status in ("PNE", "MNE")
        er = report(inst, rep.profile)
        a, b = er.countries
        assert a.imports + b.imports == pytest.approx(a.exports + b.exports, abs=1e-5)

    def test_price_cap_respected_and_followers_optimal(self):
        inst = symmetric_pair()
        g = build_game(inst)
        rep = full_enumeration(g, budget=120)
        er = report(inst, rep.profile)
        for i, c in enumerate(er.countries):
            assert c.price <= inst.countries[i].price_cap + 1e-6
            s = leader_feasible_set(g.leaders[i])
            for pt, _ in rep.profile.supports[i]:
                assert contains(s, pt, 1e-6)

    def test_equilibrium_certified(self):
        inst = symmetric_pair()
        g = build_game(inst)
        rep = full_enumeration(g, budget=120)
        assert deviation_check(g, rep.profile) == [None, None]

    def test_carbon_paradigm_scales_rates(self):
        inst = symmetric_pair(paradigm="carbon")
        rep = full_enumeration(build_game(inst), budget=120)
        er = report(inst, rep.profile)
        for i, c in enumerate(er.countries):
            spec = inst.countries[i]
            emis = np.array([p.emission_cost for p in spec.producers])
            rates = np.array(c.taxes)
            # one price per unit emission: rates proportional to factors
            assert rates * emis[::-1] == pytest.approx(rates[::-1] * emis, abs=1e-6)
            assert (rates <= np.array(spec.tax_caps) + 1e-6).all()

    def test_mccormick_envelope_holds(self):
        inst = symmetric_pair(tax_revenue=True, paradigm="carbon")
        g = build_game(inst)
        for solve in (full_enumeration, pure_enumeration, inner_approximation):
            rep = solve(g, budget=120)
            assert rep.status in ("PNE", "MNE")
            report(inst, rep.profile)
            for i, spec in enumerate(inst.countries):
                lay = country_layout(inst, i)
                quantity = kkt_layout(g.leaders[i].followers).var_slices
                mean = rep.profile.mean(i)
                taxes = lay.tax_rates(spec, mean)
                for p, prod in enumerate(spec.producers):
                    z = mean[lay.revenue][p]
                    t, q = taxes[p], mean[quantity[p]][0]
                    tmax = min(spec.tax_caps) if spec.tax_paradigm == "single" else spec.tax_caps[p]
                    qmax = prod.capacity
                    lower = max(0.0, tmax * q + qmax * t - tmax * qmax)
                    upper = min(tmax * q, qmax * t)
                    assert lower - 1e-6 <= z <= upper + 1e-6


class TestEverySolveClearsTheMarket:
    @pytest.mark.parametrize("solve", [full_enumeration, inner_approximation, pure_enumeration])
    @pytest.mark.parametrize("paradigm", PARADIGMS)
    @pytest.mark.parametrize("trade", [True, False])
    @pytest.mark.parametrize("tax_revenue", [False, True])
    def test_report_accepts_every_returned_profile(self, solve, paradigm, trade, tax_revenue):
        inst = symmetric_pair(trade=trade, tax_revenue=tax_revenue, paradigm=paradigm)
        rep = solve(build_game(inst), budget=120)
        assert rep.status in ("PNE", "MNE")
        report(inst, rep.profile)

    def test_a_solve_refuses_a_profile_that_breaks_clearing(self):
        # the first country plays its least export of at least 1 over its
        # own set, the second its equilibrium point, at which the countries
        # do not trade: the trade no longer balances
        game = build_game(symmetric_pair(trade=True))
        rep = pure_enumeration(game)
        point = exporting_point(game)
        assert contains(leader_feasible_set(game.leaders[0]), point)
        profile = MixedProfile(
            supports=(((point, 1.0),),) + rep.profile.supports[1:], market=rep.profile.market
        )
        assert clearing_residual(game, profile) > REPORT_TOL
        with pytest.raises(NumericalFailure, match="market clearing violated"):
            _report(game, [], Deadline(), profile)
        assert _report(game, [], Deadline(), rep.profile).status == "PNE"


class TestLayoutIsTheKktLayout:
    """A country's follower columns are those ``kkt_layout`` gives its
    producer game, in the objective and in ``report`` alike."""

    @pytest.mark.parametrize("paradigm", PARADIGMS)
    @pytest.mark.parametrize("trade", [True, False])
    @pytest.mark.parametrize("tax_revenue", [False, True])
    def test_objective_and_report_use_the_follower_columns(self, paradigm, trade, tax_revenue):
        inst = symmetric_pair(trade=trade, tax_revenue=tax_revenue, paradigm=paradigm)
        game = build_game(inst)
        # a pure profile lies in one piece of each set: full enumeration's
        # profile can drop a zero-weight piece's share of the aggregate,
        # and report rejects the market clearing it then breaks
        rep = pure_enumeration(game, budget=120)
        assert rep.status == "PNE"
        er = report(inst, rep.profile)
        for i, (leader, spec) in enumerate(zip(game.leaders, inst.countries)):
            assert leader.ambient == leader_feasible_set(leader).n
            cols = [s.start for s in kkt_layout(leader.followers).var_slices]
            want = np.zeros(leader.ambient)
            want[cols] = [p.emission_cost for p in spec.producers]
            want[country_layout(inst, i).revenue] = -1.0
            assert game.objectives[i].tolist() == want.tolist()
            assert er.countries[i].production == tuple(rep.profile.mean(i)[cols])


class TestValidation:
    def test_rejects_negative_producer(self):
        with pytest.raises(InvalidInstance):
            ProducerSpec(-1.0, 0.1, 10.0, 25.0)

    def test_rejects_zero_quad_with_many_followers(self):
        with pytest.raises(InvalidInstance):
            CountrySpec(
                name="bad",
                producers=(
                    ProducerSpec(100.0, 0.0, 10.0, 25.0),
                    ProducerSpec(100.0, 0.1, 10.0, 25.0),
                ),
                demand_intercept=300.0,
                demand_slope=0.5,
                price_cap=200.0,
                tax_caps=(0.0, 0.0),
            )

    def test_rejects_single_country_trade(self):
        with pytest.raises(InvalidInstance):
            EnergyInstance(countries=solo_instance().countries, trade=True)

    def test_report_dimension_mismatch(self):
        inst = solo_instance()
        rep = full_enumeration(build_game(inst))
        other = symmetric_pair()
        with pytest.raises(ProfileMismatch):
            report(other, rep.profile)
