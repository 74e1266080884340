"""Instance builders: fixture games, random trivial games, and the
subset-sum reductions used to stress the solver.

The fixture games are small two-leader instances with known behavior;
they double as regression oracles for the algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import PARADIGMS, CountrySpec, EnergyInstance, ProducerSpec
from .leadergame import DenseRows, MultiLeaderGame, StackelbergLeader
from .nashgame import PolyhedralNashGame, QuadraticPlayer
from .rng import Lcg


def _abs_gadget_follower(n_track: int, track_cols: list[int], n_param: int) -> QuadraticPlayer:
    """Linear follower whose optimum is y_i = max(-x_{t_i}, x_{t_i} - 1).

    One y per tracked leader column; with leader-side rows y >= 0 this
    forces each tracked coordinate into {<= 0} union {>= 1}.
    """
    a = np.zeros((2 * n_track, n_track))
    p = np.zeros((2 * n_track, n_param))
    b = np.zeros(2 * n_track)
    for i, col in enumerate(track_cols):
        a[2 * i, i] = -1.0  # -y_i <= x_t      (y_i >= -x_t)
        p[2 * i, col] = -1.0
        a[2 * i + 1, i] = -1.0  # -y_i <= 1 - x_t  (y_i >= x_t - 1)
        p[2 * i + 1, col] = 1.0
        b[2 * i + 1] = 1.0
    return QuadraticPlayer(c=np.ones(n_track), a=a, b=b, param_rhs=p)


def split_interval_game(flipped: bool = False, scale: float = 1.0) -> MultiLeaderGame:
    """Half-line player against a split-interval player.

    The "line" leader picks x >= 0 minimizing xi*x.  The "interval"
    leader picks xi in [-5s, 5s] minimizing (x+1)*xi, but an
    absolute-value follower with chi >= 0 carves its feasible xi down
    to [-5s,-s] union [s,5s] (s = ``scale``).  Since x+1 > 0 always,
    the interval player's only best response is the lowest feasible xi.

    Plain version: the interval player always answers xi = -5s, which
    leaves the line player with an unbounded objective, so the game has
    no equilibrium at all; yet restricting the interval player to its
    [s, 5s] piece yields the unique equilibrium (x, xi) = (0, s).
    Flipped version (objective negated): the interval player always
    answers xi = 5s and (x, xi) = (0, 5s) is the unique, pure
    equilibrium; yet the restriction to [-5s, -s] has none.
    """
    line = StackelbergLeader(
        name="line",
        n_leader=1,
        poly_a=np.array([[-1.0]]),
        poly_b=np.array([0.0]),
    )
    follower = QuadraticPlayer(
        c=np.array([1.0]),
        # rows ordered so that encoding (0, 1) selects the [s, 5s] branch
        a=np.array([[-1.0], [-1.0]]),
        b=np.array([scale, scale]),
        param_rhs=np.array([[-1.0], [1.0]]),
    )
    interval = StackelbergLeader(
        name="interval",
        n_leader=1,
        poly_a=np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0]]),
        poly_b=np.array([5.0 * scale, 5.0 * scale, 0.0]),
        followers=PolyhedralNashGame(players=(follower,), n_param=1),
    )
    sign = -1.0 if flipped else 1.0
    total = line.ambient + interval.ambient
    line_coupling = np.zeros((line.ambient, total))
    line_coupling[0, 1] = 1.0  # d/dx of xi*x
    interval_obj = np.zeros(interval.ambient)
    interval_obj[0] = sign  # own-linear tie-break term of (x+1)*xi
    interval_coupling = np.zeros((interval.ambient, total))
    interval_coupling[0, 0] = sign  # d/dxi of x*xi
    return MultiLeaderGame(
        leaders=(line, interval),
        objectives=(np.zeros(line.ambient), interval_obj),
        couplings=(line_coupling, interval_coupling),
    )


def matching_pennies_game() -> MultiLeaderGame:
    """Two leaders each forced onto a vertex of the 1-simplex.

    Leader variables (x1, x2) satisfy x >= 0, x <= 1, x1 + x2 = 1, and
    an absolute-value follower with y >= 0 pins each coordinate to
    {0, 1}: the only pure strategies are (1,0) and (0,1).  The first
    leader maximizes the probability of matching the second, the second
    of mismatching: a matching-pennies game with no pure equilibrium
    and the unique mixed equilibrium (1/2, 1/2) for both.
    """

    def leader(name: str) -> StackelbergLeader:
        rows = DenseRows(4)  # x1, x2, y1, y2
        rows.add({0: -1.0}, 0.0)
        rows.add({1: -1.0}, 0.0)
        rows.add({0: 1.0}, 1.0)
        rows.add({1: 1.0}, 1.0)
        rows.add({2: -1.0}, 0.0)
        rows.add({3: -1.0}, 0.0)
        rows.add({0: 1.0, 1: 1.0}, 1.0)  # x1 + x2 = 1
        rows.add({0: -1.0, 1: -1.0}, -1.0)
        poly_a, poly_b = rows.arrays()
        return StackelbergLeader(
            name=name,
            n_leader=2,
            poly_a=poly_a,
            poly_b=poly_b,
            followers=PolyhedralNashGame(
                players=(_abs_gadget_follower(2, [0, 1], 2),), n_param=2
            ),
        )

    first, second = leader("matcher"), leader("mismatcher")
    amb = first.ambient
    total = 2 * amb
    matcher_coupling = np.zeros((amb, total))
    matcher_coupling[0, amb + 0] = -1.0  # -x1*xi1
    matcher_coupling[1, amb + 1] = -1.0  # -x2*xi2
    mismatcher_coupling = np.zeros((amb, total))
    mismatcher_coupling[0, 1] = -1.0  # -x2*xi1
    mismatcher_coupling[1, 0] = -1.0  # -x1*xi2
    return MultiLeaderGame(
        leaders=(first, second),
        objectives=(np.zeros(amb), np.zeros(amb)),
        couplings=(matcher_coupling, mismatcher_coupling),
    )


def random_trivial_game(seed: int) -> MultiLeaderGame:
    """Seeded random two-leader game, small enough for oracle checks.

    Each leader has 1-3 box-bounded decision variables and one linear
    follower contributing at most 2 complementarity pairs; objectives
    couple bilinearly with integer-ish coefficients of magnitude <= 5.
    """
    rng = Lcg(seed)
    leaders = []
    for li in range(2):
        r = rng.split(li + 1)
        n_x = 1 + r.randint(3)
        hi = np.array([1.0 + r.randint(3) for _ in range(n_x)])
        rows = [np.hstack([-np.eye(n_x), np.zeros((n_x, 1))])]
        rhs = [np.zeros(n_x)]
        rows.append(np.hstack([np.eye(n_x), np.zeros((n_x, 1))]))
        rhs.append(hi)
        # follower: scalar y, cost 1, rows y >= a'x + d (up to 2)
        m_f = 1 + r.randint(2)
        fa = -np.ones((m_f, 1))
        fb = np.array([float(r.randint(3)) for _ in range(m_f)])
        fp = np.array(
            [[round(r.uniform(-1.5, 1.5), 1) for _ in range(n_x)] for _ in range(m_f)]
        )
        follower = QuadraticPlayer(c=np.array([1.0]), a=fa, b=fb, param_rhs=fp)
        # keep y nonnegative at the leader level so pieces split
        rows.append(np.hstack([np.zeros((1, n_x)), -np.ones((1, 1))]))
        rhs.append(np.zeros(1))
        leaders.append(
            StackelbergLeader(
                name=f"leader{li}",
                n_leader=n_x,
                poly_a=np.vstack(rows),
                poly_b=np.concatenate(rhs),
                followers=PolyhedralNashGame(players=(follower,), n_param=n_x),
            )
        )
    ambients = [leader.ambient for leader in leaders]
    total = sum(ambients)
    objectives = []
    couplings = []
    for li in range(2):
        r = rng.split(101 + li)
        amb = ambients[li]
        n_x = leaders[li].n_leader
        c = np.zeros(amb)
        coup = np.zeros((amb, total))
        rival_off = ambients[0] if li == 0 else 0
        rival_nx = leaders[1 - li].n_leader
        for row in range(n_x):
            c[row] = float(r.randint(11) - 5)
            for col in range(rival_nx):
                coup[row, rival_off + col] = float(r.randint(11) - 5)
        objectives.append(c)
        couplings.append(coup)
    return MultiLeaderGame(
        leaders=tuple(leaders),
        objectives=tuple(objectives),
        couplings=tuple(couplings),
    )


@dataclass(frozen=True)
class SubsetSumInterval:
    """Instance of the interval subset-sum decision problem.

    Asks for an integer s with p <= s < t that is NOT a subset sum of
    the q_i; the interval width t - p must be the power 2**r.
    """

    q: tuple[int, ...]
    p: int
    t: int
    r: int

    def __post_init__(self):
        if not self.q or any(v <= 0 for v in self.q):
            raise ValueError("weights must be positive")
        if self.p <= 0 or self.t <= 0:
            raise ValueError("interval ends must be positive")
        if self.t - self.p != 2**self.r:
            raise ValueError("t - p must equal 2**r")
        if self.r < 0 or 2**self.r > 2 ** len(self.q):
            raise ValueError("log2(t-p) must not exceed k")

    def decision(self) -> bool:
        """Brute-force oracle: True iff some s in [p, t) is not a subset sum."""
        sums = {0}
        for v in self.q:
            sums |= {s + v for s in sums}
        return any(s not in sums for s in range(self.p, self.t))


class InvalidConfig(ValueError):
    pass


# Fixed menus of the random energy instances.  Producers are drawn
# class-first: CLASSES are index ranges into the ascending emission
# menu (green, average, highly polluting).  The linear and quadratic
# cost menus run descending and the tax caps ascending, so that picking
# the entry at the emission index's relative position keeps costs
# inversely related to emissions and lets cleaner producers be taxed
# only lightly.
CAPACITIES = (50.0, 100.0, 130.0, 170.0, 200.0, 1000.0, 1050.0, 20000.0)
EMISSION_COSTS = (25.0, 50.0, 100.0, 200.0, 300.0, 500.0, 550.0, 600.0)
LINEAR_COSTS = (300.0, 290.0, 275.0, 250.0, 220.0, 200.0, 150.0)
QUAD_COSTS = (0.6, 0.55, 0.5, 0.3, 0.2, 0.1, 0.0)
TAX_CAPS = (0.0, 50.0, 100.0, 150.0, 200.0, 250.0, 275.0, 300.0)
DEMAND_ALPHA = (275.0, 300.0, 325.0, 350.0, 375.0, 450.0)
DEMAND_BETA = (0.5, 0.6, 0.7, 0.75, 0.8, 0.9)
PRICE_CAP_FRACTIONS = (0.8, 0.85, 0.9, 0.95)
CLASSES = ((0, 2), (2, 4), (4, 8))


@dataclass(frozen=True)
class GenConfig:
    """Shape knobs for random energy instances."""

    seed: int
    countries: int = 2
    followers: tuple[int, int] = (3, 3)
    trade: bool = True
    tax_revenue: bool = False
    paradigms: tuple[str, ...] = ("standard", "single", "carbon")

    def __post_init__(self):
        if self.countries < 1 or (self.trade and self.countries < 2):
            raise InvalidConfig("need one country, two for trade")
        if not (1 <= self.followers[0] <= self.followers[1]):
            raise InvalidConfig("bad follower range")
        if not self.paradigms:
            raise InvalidConfig("paradigms must be nonempty")
        unknown = [name for name in self.paradigms if name not in PARADIGMS]
        if unknown:
            raise InvalidConfig(f"unknown paradigms {unknown}; choose from {list(PARADIGMS)}")


def _draw_producer(rng: Lcg, multi: bool):
    lo, hi = CLASSES[rng.randint(len(CLASSES))]
    j = lo + rng.randint(hi - lo)

    def aligned(menu):
        return menu[round(j * (len(menu) - 1) / (len(EMISSION_COSTS) - 1))]

    quad = aligned(QUAD_COSTS)
    if multi and quad <= 0:
        quad = min(v for v in QUAD_COSTS if v > 0)
    spec = ProducerSpec(
        lin_cost=aligned(LINEAR_COSTS),
        quad_cost=quad,
        capacity=CAPACITIES[rng.randint(len(CAPACITIES))],
        emission_cost=EMISSION_COSTS[j],
    )
    return spec, aligned(TAX_CAPS)


def _reaches_min_supply(producers, alpha: float, beta: float, price_cap: float) -> bool:
    """Whether the producers' untaxed game without trade clears at or
    below the price cap.

    At price P producer p supplies clip((P - lin_p) / (beta + quad_p),
    0, capacity_p), the first-order condition of its profit.  So supply
    S(P) rises with P, the equilibrium price solves P = alpha - beta
    S(P), and it stays at or below the cap exactly when S(cap) reaches
    the minimum supply (alpha - cap) / beta.
    """
    supply = sum(
        min(max((price_cap - p.lin_cost) / (beta + p.quad_cost), 0.0), p.capacity)
        for p in producers
    )
    return supply >= (alpha - price_cap) / beta


def gen_energy(cfg: GenConfig):
    """Random energy instance; deterministic under the seed.

    Countries whose producers cannot reach the minimum supply implied by
    the price cap even untaxed would be infeasible without trade, so
    such draws are rejected and redrawn.
    """
    rng = Lcg(cfg.seed)
    countries = []
    for ci in range(cfg.countries):
        r = rng.split(ci + 1)
        for _attempt in range(200):
            n_f = cfg.followers[0] + r.randint(cfg.followers[1] - cfg.followers[0] + 1)
            drawn = [_draw_producer(r, n_f > 1) for _ in range(n_f)]
            producers = tuple(spec for spec, _ in drawn)
            caps = tuple(cap for _, cap in drawn)
            alpha = r.choice(DEMAND_ALPHA)
            beta = r.choice(DEMAND_BETA)
            price_cap = r.choice(PRICE_CAP_FRACTIONS) * alpha
            if not _reaches_min_supply(producers, alpha, beta, price_cap):
                continue
            countries.append(
                CountrySpec(
                    name=f"country{ci}",
                    producers=producers,
                    demand_intercept=alpha,
                    demand_slope=beta,
                    price_cap=price_cap,
                    tax_caps=caps,
                    tax_paradigm=r.choice(cfg.paradigms),
                    tax_revenue=cfg.tax_revenue,
                )
            )
            break
        else:
            raise InvalidConfig("could not draw a feasible country in 200 tries")
    return EnergyInstance(countries=tuple(countries), trade=cfg.trade)


def gen_pne_hardness(d: SubsetSumInterval) -> MultiLeaderGame:
    """Two-leader game whose pure equilibria encode the subset-sum answer.

    With k weights and interval width 2**r, write P = k + 2r,
    Q = sum(q), T = t - 1 + r*Q.  The "latin" leader holds binary-like
    variables x_0..x_{2P} (absolute-value followers pin each to {0,1});
    the "greek" leader holds xi_0..xi_P likewise.  The payoffs reward
    greek for matching a non-representable integer s in [p, t) against
    latin's bit choices: a pure equilibrium exists iff such an s exists.
    """
    k = len(d.q)
    r = d.r
    big_p = k + 2 * r
    big_q = float(sum(d.q))
    big_t = float(d.t - 1 + r * big_q)

    # ---- latin leader: x_0..x_{2P} with gadget followers on all of them
    n_x = 2 * big_p + 1
    rows = DenseRows(2 * n_x)  # x block plus y block
    for i in range(n_x):
        rows.add({i: -1.0}, 0.0)  # x_i >= 0
        rows.add({n_x + i: -1.0}, 0.0)  # y_i >= 0
    rows.add({i: 1.0 for i in range(k + 1, big_p + 1)}, float(r))  # bit budget
    for i in range(1, k + 1):
        rows.add({i: 1.0}, 0.0)  # x_i = 0
        rows.add({i: -1.0}, 0.0)
    for i in range(1, big_p + 1):
        rows.add({i: 1.0, big_p + i: 1.0}, 1.0)  # x_i + x_{P+i} <= 1
        rows.add({0: 1.0, big_p + i: 1.0}, 1.0)  # x_0 + x_{P+i} <= 1
    poly_a, poly_b = rows.arrays()
    latin = StackelbergLeader(
        name="latin",
        n_leader=n_x,
        poly_a=poly_a,
        poly_b=poly_b,
        followers=PolyhedralNashGame(
            players=(_abs_gadget_follower(n_x, list(range(n_x)), n_x),), n_param=n_x
        ),
    )

    # ---- greek leader: xi_0..xi_P with gadget followers on all of them
    n_xi = big_p + 1
    rows = DenseRows(2 * n_xi)
    for i in range(n_xi):
        rows.add({i: -1.0}, 0.0)  # xi_i >= 0
        rows.add({i: 1.0}, 1.0)  # xi_i <= 1
        rows.add({n_xi + i: -1.0}, 0.0)  # chi_i >= 0
    rows.add(
        {**{i: -1.0 for i in range(k + 1, big_p + 1)}, 0: -float(r)}, -float(r)
    )  # sum xi_{k+1..P} + r xi_0 >= r
    con = {0: big_t}
    for i in range(1, k + 1):
        con[i] = float(d.q[i - 1])
    for i in range(k + 1, big_p + 1):
        con[i] = con.get(i, 0.0) + big_q
    for i in range(k + 1, k + r + 1):
        con[i] += 2.0 ** (i - k - 1)
    rows.add(con, big_t)  # budget tying xi_0 against the encoded integer
    poly_a, poly_b = rows.arrays()
    greek = StackelbergLeader(
        name="greek",
        n_leader=n_xi,
        poly_a=poly_a,
        poly_b=poly_b,
        followers=PolyhedralNashGame(
            players=(_abs_gadget_follower(n_xi, list(range(n_xi)), n_xi),), n_param=n_xi
        ),
    )
    latin_amb, greek_amb = latin.ambient, greek.ambient
    total = latin_amb + greek_amb

    # latin maximizes (T-1) xi_0 x_0 + sum_i<=k q_i xi_i x_{P+i}
    #                + Q sum_{i>k} xi_i x_{P+i}   (minimization: negate)
    latin_c = np.zeros(latin_amb)
    latin_coup = np.zeros((latin_amb, total))
    latin_coup[0, latin_amb + 0] = -(big_t - 1.0)
    for i in range(1, k + 1):
        latin_coup[big_p + i, latin_amb + i] = -float(d.q[i - 1])
    for i in range(k + 1, big_p + 1):
        latin_coup[big_p + i, latin_amb + i] = -big_q

    # greek maximizes (T-1) xi_0 + sum_{i<=k} q_i xi_i (1 - x_{P+i})
    #   + sum_{i>k} (Q + [i<=k+r] 2^{i-k-1}) xi_i (1 - x_i - x_{P+i})
    #   - T sum_{i>k} x_i xi_i
    # The last term punishes greek for picking a slot latin occupies;
    # zero slots left unpicked cost nothing, which is what lets greek
    # cash in a representable integer whenever one exists.
    greek_c = np.zeros(greek_amb)
    greek_coup = np.zeros((greek_amb, total))
    greek_c[0] = -(big_t - 1.0)
    for i in range(1, k + 1):
        greek_c[i] = -float(d.q[i - 1])
        greek_coup[i, big_p + i] = float(d.q[i - 1])
    for i in range(k + 1, big_p + 1):
        w = big_q + (2.0 ** (i - k - 1) if i <= k + r else 0.0)
        greek_c[i] = -w
        greek_coup[i, i] = w + big_t
        greek_coup[i, big_p + i] = w

    return MultiLeaderGame(
        leaders=(latin, greek),
        objectives=(latin_c, greek_c),
        couplings=(latin_coup, greek_coup),
    )


def _product_gadget_follower(n_param: int, h: int, y: int, x: int) -> QuadraticPlayer:
    """Six-variable follower forcing (h, y, x) into {h=x, y=1} u {h=0, y=0}.

    Together with leader rows 0 <= h <= x, 0 <= y <= 1, x >= 0 and
    z >= 0, the follower's optimal z_j = max of each row pair is
    nonnegative only on the two branches, on both of which h = x*y.
    """
    a = np.zeros((12, 6))
    p = np.zeros((12, n_param))
    b = np.zeros(12)

    def row(idx, z, coeffs: dict[int, float], const: float):
        # z_z >= coeffs . x + const   ->  -z_z <= -coeffs . x - const
        a[idx, z] = -1.0
        for col, val in coeffs.items():
            p[idx, col] = val
        b[idx] = -const

    row(0, 0, {h: 1.0, x: -1.0}, 0.0)  # z1 >= h - x
    row(1, 0, {h: -1.0}, 0.0)  # z1 >= -h
    row(2, 1, {y: -1.0}, 1.0)  # z2 >= 1 - y
    row(3, 1, {h: -1.0}, 0.0)  # z2 >= -h
    row(4, 2, {y: 1.0}, -1.0)  # z3 >= y - 1
    row(5, 2, {h: -1.0}, 0.0)  # z3 >= -h
    row(6, 3, {x: 1.0, h: -1.0}, 0.0)  # z4 >= x - h
    row(7, 3, {y: -1.0}, 0.0)  # z4 >= -y
    row(8, 4, {h: 1.0, x: -1.0}, 0.0)  # z5 >= h - x
    row(9, 4, {y: -1.0}, 0.0)  # z5 >= -y
    row(10, 5, {y: 1.0}, -1.0)  # z6 >= y - 1
    row(11, 5, {y: -1.0}, 0.0)  # z6 >= -y
    return QuadraticPlayer(c=np.ones(6), a=a, b=b, param_rhs=p)


def product_gadget_leader() -> StackelbergLeader:
    """Standalone (h, y, x) gadget for direct inspection of its pieces."""
    rows = DenseRows(3 + 6)
    for i in range(3):
        rows.add({i: -1.0}, 0.0)  # h, y, x >= 0
    rows.add({1: 1.0}, 1.0)  # y <= 1
    rows.add({0: 1.0, 2: -1.0}, 0.0)  # h <= x
    for j in range(6):
        rows.add({3 + j: -1.0}, 0.0)  # z >= 0
    poly_a, poly_b = rows.arrays()
    return StackelbergLeader(
        name="product-gadget",
        n_leader=3,
        poly_a=poly_a,
        poly_b=poly_b,
        followers=PolyhedralNashGame(
            players=(_product_gadget_follower(3, 0, 1, 2),), n_param=3
        ),
    )


def gen_mne_hardness(d: SubsetSumInterval) -> MultiLeaderGame:
    """Two-leader game whose mixed equilibria encode the subset-sum answer.

    The "latin" leader carries an integer counter x_{k+3r+1} in [p, t)
    built from r product gadgets (each forcing h = x*y with binary y),
    plus k binary weight-pickers; the "greek" leader holds bits
    xi_1..xi_r, a mirrored counter xi_{r+1}, and an unbounded xi_0 paid
    (1 - x_0) xi_0.  A mixed equilibrium exists iff some s in [p, t) is
    not a subset sum.
    """
    k = len(d.q)
    r = d.r
    big_q = float(sum(d.q))

    # latin variables: x_0..x_k (binary block), then per i=1..r the
    # gadget triple h_i = x_{k+i}, y_i = x_{k+r+i}, s_i = x_{k+2r+i},
    # then the counter x_{k+3r+1}
    n_x = k + 3 * r + 2
    counter = k + 3 * r + 1
    n_y = (k + 1) + 6 * r  # abs-gadget y's plus product-gadget z's
    rows = DenseRows(n_x + n_y)
    for i in range(k + 1):
        rows.add({i: -1.0}, 0.0)  # x_i >= 0
        rows.add({i: 1.0}, 1.0)  # x_i <= 1
        rows.add({n_x + i: -1.0}, 0.0)  # y_i >= 0
    for i in range(1, r + 1):
        h, y, x = k + i, k + r + i, k + 2 * r + i
        rows.add({h: -1.0}, 0.0)
        rows.add({y: -1.0}, 0.0)
        rows.add({x: -1.0}, 0.0)
        rows.add({y: 1.0}, 1.0)
        rows.add({h: 1.0, x: -1.0}, 0.0)  # h <= x
        for j in range(6):
            rows.add({n_x + (k + 1) + 6 * (i - 1) + j: -1.0}, 0.0)  # z >= 0
        rows.add({counter: 1.0, x: -1.0}, 0.0)  # counter = gadget x
        rows.add({counter: -1.0, x: 1.0}, 0.0)
    bin_row = {counter: 1.0}
    for i in range(1, r + 1):
        bin_row[k + r + i] = -(2.0 ** (i - 1))
    rows.add(bin_row, float(d.p))  # counter = p + sum 2^{i-1} y_i
    rows.add({c: -v for c, v in bin_row.items()}, -float(d.p))
    knap = {0: 0.5, counter: -1.0}
    for i in range(1, k + 1):
        knap[i] = float(d.q[i - 1])
    rows.add(knap, 0.0)  # x_0/2 + sum q_i x_i <= counter

    followers = [_abs_gadget_follower(k + 1, list(range(k + 1)), n_x)]
    for i in range(1, r + 1):
        followers.append(
            _product_gadget_follower(n_x, k + i, k + r + i, k + 2 * r + i)
        )
    poly_a, poly_b = rows.arrays()
    latin = StackelbergLeader(
        name="latin",
        n_leader=n_x,
        poly_a=poly_a,
        poly_b=poly_b,
        followers=PolyhedralNashGame(players=tuple(followers), n_param=n_x),
    )

    # greek variables: xi_0 (unbounded above), xi_1..xi_r, xi_{r+1}
    n_xi = r + 2
    rows = DenseRows(n_xi + r)
    rows.add({0: -1.0}, 0.0)  # xi_0 >= 0
    for i in range(1, r + 1):
        rows.add({i: -1.0}, 0.0)
        rows.add({i: 1.0}, 1.0)
        rows.add({n_xi + i - 1: -1.0}, 0.0)  # chi_i >= 0
    mirror = {r + 1: 1.0}
    for i in range(1, r + 1):
        mirror[i] = -(2.0 ** (i - 1))
    rows.add(mirror, float(d.p))
    rows.add({c: -v for c, v in mirror.items()}, -float(d.p))
    poly_a, poly_b = rows.arrays()
    greek = StackelbergLeader(
        name="greek",
        n_leader=n_xi,
        poly_a=poly_a,
        poly_b=poly_b,
        followers=PolyhedralNashGame(
            players=(_abs_gadget_follower(r, list(range(1, r + 1)), n_xi),),
            n_param=n_xi,
        ),
    )
    latin_amb, greek_amb = latin.ambient, greek.ambient
    total = latin_amb + greek_amb

    # latin maximizes x_0/2 + sum q_i x_i + 2(Q+1) xi_{r+1} counter
    #                 - (Q+1)(sum 2^{i-1} h_i + p * counter)
    latin_c = np.zeros(latin_amb)
    latin_c[0] = -0.5
    for i in range(1, k + 1):
        latin_c[i] = -float(d.q[i - 1])
    for i in range(1, r + 1):
        latin_c[k + i] = (big_q + 1.0) * 2.0 ** (i - 1)
    latin_c[counter] = (big_q + 1.0) * float(d.p)
    latin_coup = np.zeros((latin_amb, total))
    latin_coup[counter, latin_amb + r + 1] = -2.0 * (big_q + 1.0)

    # greek maximizes (1 - x_0) xi_0
    greek_c = np.zeros(greek_amb)
    greek_c[0] = -1.0
    greek_coup = np.zeros((greek_amb, total))
    greek_coup[0, 0] = 1.0

    return MultiLeaderGame(
        leaders=(latin, greek),
        objectives=(latin_c, greek_c),
        couplings=(latin_coup, greek_coup),
    )
