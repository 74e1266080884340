"""International energy-trade games: countries tax domestic producers
and trade energy; producers play a Cournot game at home.

Each country (leader) chooses taxes, imports per partner country, and
an export total to minimize emission cost plus import cost minus export
revenue (minus tax revenue, when enabled).  Its producers (followers)
choose quantities 0 <= q <= capacity to maximize profit against the
domestic inverse demand alpha - beta * (production + imports - exports).
The country must keep the domestic price at or below its price cap,
which in particular keeps net supply above (alpha - cap) / beta and so
bounds exports by available energy.  Trade across countries must clear
(total imports equal total exports); the clearing multiplier acts as
the common trade price in every country's objective.

Tax paradigms: "standard" (one tax per producer), "single" (one tax for
all), "carbon" (one tax per unit emission, so producer p pays
emission_cost_p * t).  With tax revenue enabled, the bilinear revenue
term tax * quantity is replaced by an auxiliary variable constrained to
its McCormick envelope over [0, tax_cap] x [0, capacity].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import MixedProfile
from .leadergame import DenseRows, MultiLeaderGame, StackelbergLeader
from .nashgame import PolyhedralNashGame, QuadraticPlayer, kkt_layout
from .tolerances import REPORT_TOL


class InvalidInstance(ValueError):
    pass


class ProfileMismatch(ValueError):
    pass


PARADIGMS = ("standard", "single", "carbon")


@dataclass(frozen=True)
class ProducerSpec:
    lin_cost: float
    quad_cost: float
    capacity: float
    emission_cost: float

    def __post_init__(self):
        if min(self.lin_cost, self.quad_cost, self.capacity, self.emission_cost) < 0:
            raise InvalidInstance("producer parameters must be nonnegative")


@dataclass(frozen=True)
class CountrySpec:
    name: str
    producers: tuple[ProducerSpec, ...]
    demand_intercept: float
    demand_slope: float
    price_cap: float
    tax_caps: tuple[float, ...]
    tax_paradigm: str = "standard"
    tax_revenue: bool = False

    def __post_init__(self):
        if not self.producers:
            raise InvalidInstance(f"{self.name}: needs at least one producer")
        if self.demand_slope <= 0:
            raise InvalidInstance(f"{self.name}: demand slope must be positive")
        if not (0 <= self.price_cap < self.demand_intercept):
            raise InvalidInstance(f"{self.name}: need 0 <= price cap < intercept")
        if len(self.tax_caps) != len(self.producers):
            raise InvalidInstance(f"{self.name}: one tax cap per producer")
        if any(c < 0 for c in self.tax_caps):
            raise InvalidInstance(f"{self.name}: tax caps must be nonnegative")
        if self.tax_paradigm not in PARADIGMS:
            raise InvalidInstance(f"{self.name}: unknown paradigm {self.tax_paradigm}")
        if len(self.producers) > 1 and any(p.quad_cost <= 0 for p in self.producers):
            raise InvalidInstance(
                f"{self.name}: quadratic costs must be positive for a unique "
                "producer equilibrium with several producers"
            )


@dataclass(frozen=True)
class EnergyInstance:
    countries: tuple[CountrySpec, ...]
    trade: bool = True

    def __post_init__(self):
        if not self.countries:
            raise InvalidInstance("need at least one country")
        if self.trade and len(self.countries) < 2:
            raise InvalidInstance("trade needs at least two countries")


@dataclass(frozen=True)
class CountryLayout:
    """Index map inside one country's decision block x, the first ``n_x``
    columns of its ambient block.  The follower columns after it
    (quantities, multipliers) are placed by ``nashgame.kkt_layout`` of
    the country's producer game."""

    n_tax: int
    tax: slice
    imports: slice  # empty when trade is off
    export: int | None
    revenue: slice  # empty when tax revenue is off
    n_x: int

    def tax_rates(self, country: CountrySpec, point: np.ndarray) -> np.ndarray:
        """Each producer's tax rate at ``point``, through ``_tax_column``."""
        cols = [_tax_column(country, self, p) for p in range(len(country.producers))]
        return np.array([coef * point[col] for col, coef in cols])


def country_layout(inst: EnergyInstance, idx: int) -> CountryLayout:
    country = inst.countries[idx]
    n_prod = len(country.producers)
    n_tax = n_prod if country.tax_paradigm == "standard" else 1
    n_imp = len(inst.countries) - 1 if inst.trade else 0
    pos = 0
    tax = slice(pos, pos + n_tax)
    pos += n_tax
    imports = slice(pos, pos + n_imp)
    pos += n_imp
    export = pos if inst.trade else None
    pos += 1 if inst.trade else 0
    revenue = slice(pos, pos + (n_prod if country.tax_revenue else 0))
    pos += n_prod if country.tax_revenue else 0
    return CountryLayout(
        n_tax=n_tax,
        tax=tax,
        imports=imports,
        export=export,
        revenue=revenue,
        n_x=pos,
    )


def _tax_column(country: CountrySpec, lay: CountryLayout, p: int) -> tuple[int, float]:
    """(column, coefficient) of producer p's tax rate inside the x block."""
    if country.tax_paradigm == "standard":
        return lay.tax.start + p, 1.0
    if country.tax_paradigm == "single":
        return lay.tax.start, 1.0
    return lay.tax.start, country.producers[p].emission_cost


def _producer_tax_cap(country: CountrySpec, p: int) -> float:
    if country.tax_paradigm == "single":
        return min(country.tax_caps)
    return country.tax_caps[p]


def _follower_game(inst: EnergyInstance, idx: int, lay: CountryLayout) -> PolyhedralNashGame:
    country = inst.countries[idx]
    beta = country.demand_slope
    n_prod = len(country.producers)
    players = []
    for p, prod in enumerate(country.producers):
        coupling = np.zeros((1, n_prod))
        coupling[0, :] = beta
        coupling[0, p] = 0.0
        param_obj = np.zeros((1, lay.n_x))
        col, coef = _tax_column(country, lay, p)
        param_obj[0, col] = coef
        if inst.trade:
            param_obj[0, lay.imports] = beta
            param_obj[0, lay.export] = -beta
        players.append(
            QuadraticPlayer(
                c=np.array([prod.lin_cost - country.demand_intercept]),
                a=np.array([[-1.0], [1.0]]),
                b=np.array([0.0, prod.capacity]),
                q=np.array([[prod.quad_cost + 2.0 * beta]]),
                coupling=coupling,
                param_obj=param_obj,
            )
        )
    return PolyhedralNashGame(players=tuple(players), n_param=lay.n_x)


def _leader_rows(inst: EnergyInstance, idx: int, lay: CountryLayout, quantity: list[int]):
    """The country's own rows over (x, q); ``quantity[p]`` is producer
    p's column."""
    country = inst.countries[idx]
    beta = country.demand_slope
    n_prod = len(country.producers)
    rows = DenseRows(lay.n_x + n_prod)
    # tax bounds
    for j in range(lay.n_tax):
        rows.add({lay.tax.start + j: -1.0}, 0.0)
    for p in range(n_prod):
        col, coef = _tax_column(country, lay, p)
        rows.add({col: coef}, country.tax_caps[p])
    # trade variable signs
    if inst.trade:
        for j in range(lay.imports.start, lay.imports.stop):
            rows.add({j: -1.0}, 0.0)
        rows.add({lay.export: -1.0}, 0.0)
    # domestic price cap:  alpha - beta (sum q + imports - export) <= cap
    price_row = {quantity[p]: -beta for p in range(n_prod)}
    if inst.trade:
        for j in range(lay.imports.start, lay.imports.stop):
            price_row[j] = -beta
        price_row[lay.export] = beta
    rows.add(price_row, country.price_cap - country.demand_intercept)
    # McCormick envelope of revenue_p = tax_p * q_p
    if country.tax_revenue:
        for p, prod in enumerate(country.producers):
            z = lay.revenue.start + p
            tcol, tcoef = _tax_column(country, lay, p)
            tmax, qmax = _producer_tax_cap(country, p), prod.capacity
            rows.add({z: -1.0}, 0.0)
            rows.add({z: -1.0, quantity[p]: tmax, tcol: qmax * tcoef}, tmax * qmax)
            rows.add({z: 1.0, quantity[p]: -tmax}, 0.0)
            rows.add({z: 1.0, tcol: -qmax * tcoef}, 0.0)
    return rows.arrays()


def build_game(inst: EnergyInstance) -> MultiLeaderGame:
    """Assemble the countries into a multi-leader game.

    With trade, a single clearing row (total imports = total exports)
    is priced by its free multiplier, which enters every country's
    objective on its import columns (+) and export column (-).
    """
    layouts = [country_layout(inst, i) for i in range(len(inst.countries))]
    leaders = []
    objectives = []
    for i, country in enumerate(inst.countries):
        lay = layouts[i]
        followers = _follower_game(inst, i, lay)
        quantity = [s.start for s in kkt_layout(followers).var_slices]
        a, b = _leader_rows(inst, i, lay, quantity)
        leader = StackelbergLeader(
            name=country.name,
            n_leader=lay.n_x,
            poly_a=a,
            poly_b=b,
            followers=followers,
        )
        leaders.append(leader)
        c = np.zeros(leader.ambient)
        c[quantity] = [prod.emission_cost for prod in country.producers]
        if country.tax_revenue:
            c[lay.revenue] = -1.0
        objectives.append(c)

    ambients = [len(c) for c in objectives]
    total = sum(ambients)
    offsets = np.cumsum([0] + ambients)
    couplings: list[np.ndarray | None] = []
    clearing = None
    if inst.trade:
        clearing = np.zeros((1, total))
        for i, lay in enumerate(layouts):
            coup = np.zeros((ambients[i], total + 1))
            for j in range(lay.imports.start, lay.imports.stop):
                coup[j, total] = 1.0
                clearing[0, offsets[i] + j] = 1.0
            coup[lay.export, total] = -1.0
            clearing[0, offsets[i] + lay.export] = -1.0
            couplings.append(coup)
    else:
        couplings = [None] * len(layouts)

    return MultiLeaderGame(
        leaders=tuple(leaders),
        objectives=tuple(objectives),
        couplings=tuple(couplings),
        clearing=clearing,
    )


@dataclass(frozen=True)
class CountryReport:
    name: str
    production: tuple[float, ...]
    price: float
    imports: float
    exports: float
    taxes: tuple[float, ...]
    emission: float


@dataclass(frozen=True)
class EnergyReport:
    countries: tuple[CountryReport, ...]
    trade_volume: float
    total_emission: float
    clearing_price: float


def report(inst: EnergyInstance, profile: MixedProfile) -> EnergyReport:
    """Market quantities at the profile's expectation.

    Mixed strategies are evaluated at their support mean, which is
    exact for every linear quantity reported here.
    """
    if len(profile.supports) != len(inst.countries):
        raise ProfileMismatch("profile has wrong number of leaders")
    if len(profile.market) != int(inst.trade):
        raise ProfileMismatch(
            f"{len(profile.market)} market prices for {int(inst.trade)} clearing rows"
        )
    countries = []
    total_emission = 0.0
    volume = 0.0
    for i, country in enumerate(inst.countries):
        lay = country_layout(inst, i)
        kkt = kkt_layout(_follower_game(inst, i, lay))
        mean = profile.mean(i)
        if len(mean) != kkt.total:
            raise ProfileMismatch(f"{country.name}: wrong ambient dimension")
        q = np.concatenate(kkt.strategies(mean))
        imports = float(np.sum(mean[lay.imports])) if inst.trade else 0.0
        exports = float(mean[lay.export]) if inst.trade else 0.0
        price = country.demand_intercept - country.demand_slope * (
            float(q.sum()) + imports - exports
        )
        if price > country.price_cap + REPORT_TOL:
            raise ProfileMismatch(f"{country.name}: price above its cap")
        emissions = float(
            sum(p.emission_cost * qi for p, qi in zip(country.producers, q))
        )
        total_emission += emissions
        volume += imports
        countries.append(
            CountryReport(
                name=country.name,
                production=tuple(float(v) for v in q),
                price=float(price),
                imports=imports,
                exports=exports,
                taxes=tuple(float(v) for v in lay.tax_rates(country, mean)),
                emission=emissions,
            )
        )
    clearing_price = float(profile.market[0]) if profile.market.size else 0.0
    if inst.trade:
        residual = abs(
            sum(c.imports for c in countries) - sum(c.exports for c in countries)
        )
        if residual > REPORT_TOL:
            raise ProfileMismatch(f"market clearing violated by {residual:.2e}")
    return EnergyReport(
        countries=tuple(countries),
        trade_volume=volume,
        total_emission=total_emission,
        clearing_price=clearing_price,
    )
