"""The benchmark's fixed solve batches and the checks on their answers.

Energy instances are ``build_game(gen_energy(GenConfig(seed, C, (F, F))))``.
``shift`` moves every energy seed of a workload; the default 0 gives the
batches that README.md documents.  The two pure-bnb budget probes are
fixed instances and never shift.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from epecnash import (
    GenConfig,
    SubsetSumInterval,
    build_game,
    contains,
    deviation_check,
    full_enumeration,
    gen_energy,
    gen_pne_hardness,
    inner_approximation,
    pure_enumeration,
)
from epecnash.cli import _selection_vector

BUDGET = 30.0
PROBE_BUDGET = 0.5
LADDER = ((2, 4), (2, 6), (2, 8), (3, 4), (3, 6))
LADDER_SEEDS = 3
INNER_STRATEGIES = ("seq", "rseq", "rand")  # by the instance's seed index
PURE_SEEDS = 10
PROBES = ((5, "first"), (8, "select"))  # (seed at shift 0, mode), 0.5 s budget
HARDNESS = {  # the criterion-8 subset-sum pair
    "ss-yes": dict(q=(1,), p=2, t=4, r=1),
    "ss-no": dict(q=(1, 2), p=1, t=3, r=1),
}
WORKLOADS = ("full-ladder", "inner-ladder", "pure-bnb")
TOL = 1e-6


@dataclass(frozen=True)
class Solve:
    label: str
    instance: tuple  # ("energy", C, F, seed) or ("subset-sum", name)
    algorithm: str  # full | inner | pure
    budget: float = BUDGET
    kwargs: dict = field(default_factory=dict)
    select: bool = False


def batch(workload: str, shift: int = 0) -> list[Solve]:
    if workload in ("full-ladder", "inner-ladder"):
        out = []
        for c, f in LADDER:
            for i in range(LADDER_SEEDS):
                key, label = ("energy", c, f, shift + i), f"C{c}F{f}s{shift + i}"
                if workload == "full-ladder":
                    out.append(Solve(label, key, "full"))
                else:
                    kwargs = dict(strategy=INNER_STRATEGIES[i], k=1, seed=0)
                    out.append(Solve(label, key, "inner", kwargs=kwargs))
        return out
    if workload == "pure-bnb":
        out = []
        for i in range(PURE_SEEDS):
            key, label = ("energy", 2, 2, shift + i), f"C2F2s{shift + i}"
            if (i, "first") not in PROBES:
                out.append(Solve(f"{label}-first", key, "pure"))
            if (i, "select") not in PROBES:
                out.append(Solve(f"{label}-select", key, "pure", select=True))
        for seed, mode in PROBES:
            key, label = ("energy", 2, 2, seed), f"C2F2s{seed}-{mode}-probe"
            out.append(Solve(label, key, "pure", PROBE_BUDGET, select=mode == "select"))
        out += [Solve(name, ("subset-sum", name), "pure") for name in HARDNESS]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def build_instances(solves: list[Solve], tracer=None) -> dict:
    """Generate and build every game the batch uses (the set-up step)."""
    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    games = {}
    for key in dict.fromkeys(s.instance for s in solves):
        if key[0] == "subset-sum":
            with span("generators.gen"):
                games[key] = gen_pne_hardness(SubsetSumInterval(**HARDNESS[key[1]]))
            continue
        _, c, f, seed = key
        with span("generators.gen"):
            inst = gen_energy(GenConfig(seed=seed, countries=c, followers=(f, f)))
        with span("energy.build"):
            games[key] = build_game(inst)
    return games


def run_solve(solve: Solve, game):
    """The solver call itself; raises whatever the solver raises."""
    selection = _selection_vector(game) if solve.select else None
    if solve.algorithm == "full":
        return full_enumeration(game, selection=selection, budget=solve.budget)
    if solve.algorithm == "pure":
        return pure_enumeration(game, selection=selection, budget=solve.budget)
    return inner_approximation(game, budget=solve.budget, **solve.kwargs)


def verdict(status: str) -> bool | None:
    """Whether the answer says an equilibrium exists; None for no answer."""
    if status in ("MNE", "PNE"):
        return True
    if status == "NoEquilibrium":
        return False
    return None


def expected_verdict(solve: Solve) -> bool | None:
    """The known existence answer for this solve's instance, if any.

    Every shift-0 ladder instance has a mixed equilibrium: full and
    inner enumeration agree wherever both answer (full fails on C2F8
    seeds 0 and 1; inner decides both).
    """
    if solve.instance[0] == "subset-sum":
        return SubsetSumInterval(**HARDNESS[solve.instance[1]]).decision()
    if solve.algorithm in ("full", "inner") and solve.instance in _SHIFT0_LADDER:
        return True
    return None


_SHIFT0_LADDER = frozenset(s.instance for s in batch("full-ladder"))


def check_answer(solve: Solve, game, sets, rep) -> list[str]:
    """Problems with one solver answer, checked against the true sets."""
    problems = []
    if solve.algorithm == "pure" and rep.status not in ("PNE", "NoEquilibrium", "TimeLimit"):
        problems.append(f"pure enumeration returned {rep.status}")
    if rep.status in ("MNE", "PNE"):
        prof = rep.profile
        for i, support in enumerate(prof.supports):
            total = sum(p for _, p in support)
            if abs(total - 1.0) > 1e-9 or any(p <= 0 for _, p in support):
                problems.append(f"leader {i} probabilities {[p for _, p in support]}")
            if not all(contains(sets[i], pt) for pt, _ in support):
                problems.append(f"leader {i} support point outside its set")
        if rep.status == "PNE" and not prof.is_pure():
            problems.append("PNE profile is mixed")
        devs = deviation_check(game, prof, sets=sets)
        problems += [f"leader {d.leader} deviates by {d.improvement:g}" for d in devs if d]
    expected = expected_verdict(solve)
    found = verdict(rep.status)
    if expected is not None and found is not None and found != expected:
        problems.append(f"verdict {rep.status}, expected equilibrium={expected}")
    return problems


def check_selection(solves: list[Solve], games: dict, reports: dict) -> list[str]:
    """The selected pure answer exists iff the first-found one does, and
    scores no worse on the selection criterion."""
    problems = []
    by_mode = {(s.instance, s.select): reports.get(s.label) for s in solves if s.algorithm == "pure"}
    for (key, select), rep in by_mode.items():
        other = by_mode.get((key, True))
        if select or rep is None or other is None:
            continue
        first_v, sel_v = verdict(rep.status), verdict(other.status)
        if first_v is None or sel_v is None:
            continue
        if first_v != sel_v:
            problems.append(f"{key}: first-found {rep.status} but selected {other.status}")
        elif first_v:
            sel = _selection_vector(games[key])
            score = [float(sel @ np.concatenate(r.profile.means())) for r in (rep, other)]
            if score[1] > score[0] + TOL * max(1.0, abs(score[0])):
                problems.append(f"{key}: selected score {score[1]} above first-found {score[0]}")
    return problems
