"""What the solver imports, and the solver names the benchmark's tracer patches.

The solver loads SciPy's HiGHS extension straight from its file and
``linprog`` only on an oracle solve, so ``import epecnash`` and every
search leave ``scipy.optimize`` (and the SciPy subpackages its
``__init__`` pulls in) unloaded.  Its matrices are its own
``SparseMatrix``, so ``scipy.sparse`` stays unloaded too, while a set
given as SciPy sparse matrices is still read.  Each import check runs in
a fresh interpreter, since this test process has long loaded
``scipy.optimize`` and ``scipy.sparse``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from epecnash import hotlp
from epecnash.leadergame import leader_feasible_set
from epecnash.polyhedra import ComplementaritySet, PieceRows, iter_encodings

from tests.helpers import csr, tax_revenue_game

ROOT = Path(__file__).resolve().parent.parent
# scipy.sparse, and what scipy.optimize's package __init__ loads: no solve
# needs any of them
HEAVY = ("scipy.sparse", "scipy.linalg", "scipy.special", "scipy.spatial", "scipy.fft")

SOLVES = """
import json, sys

import epecnash
import epecnash.cli
from epecnash import (
    GenConfig, SubsetSumInterval, build_game, full_enumeration, gen_energy,
    gen_pne_hardness, inner_approximation, pure_enumeration,
)

game = build_game(gen_energy(GenConfig(seed=0, countries=2, followers=(4, 4))))
ss_yes = gen_pne_hardness(SubsetSumInterval(q=(1,), p=2, t=4, r=1))
statuses = [
    full_enumeration(game).status,
    inner_approximation(game).status,
    pure_enumeration(game).status,
    pure_enumeration(ss_yes).status,
]
json.dump({"statuses": statuses, "modules": sorted(sys.modules)}, sys.stdout)
"""

# scipy.optimize imported before or after the solver: both end up with one
# HiGHS extension module, and linprog, the oracle and RangedLp all solve
BOTH = """
import sys

import numpy as np
import scipy.sparse as sp

if sys.argv[1] == "before":
    import scipy.optimize
from epecnash import hotlp
from epecnash.lp import LinearProgram, LpStatus, solve_lp
from epecnash.polyhedra import ComplementaritySet, is_feasible

# min x0 + x1  s.t.  x0 + 2 x1 >= 2,  x >= 0: x = (0, 1), value 1
a, b = np.array([[-1.0, -2.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([-2.0, 0.0, 0.0])
out = solve_lp(LinearProgram(np.ones(2), a, b))
assert out.status is LpStatus.OPTIMAL and abs(out.value - 1.0) < 1e-9, out
assert is_feasible(ComplementaritySet(a, b))
assert not is_feasible(ComplementaritySet(np.vstack([a, [1.0, 1.0]]), np.append(b, -1.0)))

import scipy.optimize
import scipy.optimize._highspy._core as core
from scipy.optimize import linprog

assert core is hotlp._hc
res = linprog(np.ones(2), A_ub=a, b_ub=b, method="highs")
assert res.status == 0 and abs(res.fun - 1.0) < 1e-9, res
status, _, value = hotlp.RangedLp(
    np.ones(2), sp.csr_matrix(a), np.full(3, -hotlp.INF), b
).solve()
assert status is LpStatus.OPTIMAL and abs(value - 1.0) < 1e-9, (status, value)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_searches_never_load_scipy_optimize():
    proc = _python("-c", SOLVES)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["statuses"] == ["MNE", "MNE", "NoEquilibrium", "PNE"]
    loaded = [m for m in out["modules"] if m == "scipy.optimize" or m.startswith(HEAVY)]
    assert loaded == []


@pytest.mark.parametrize("order", ["before", "after"])
def test_scipy_optimize_shares_the_solver_extension(order):
    proc = _python("-c", BOTH, order)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("leader", [0, 2])
def test_scipy_sparse_and_dense_sets_walk_alike(leader):
    # the set's own SparseMatrix rows, the same rows as SciPy CSR and as
    # dense arrays: one walk, with the same witness points, in both orders
    s = leader_feasible_set(tax_revenue_game().leaders[leader])
    names = ("a", "a_eq", "m_mat")
    scipy_set = ComplementaritySet(**{**vars(s), **{k: csr(getattr(s, k)) for k in names}})
    dense_set = ComplementaritySet(**{**vars(s), **{k: getattr(s, k).toarray() for k in names}})
    assert sp.issparse(scipy_set.m_mat) and isinstance(dense_set.m_mat, np.ndarray)
    for first in (0, 1):
        walks = [list(iter_encodings(PieceRows(t), first)) for t in (s, scipy_set, dense_set)]
        assert len(walks[0]) > 0
        for walk in walks[1:]:
            assert [e for e, _ in walk] == [e for e, _ in walks[0]]
            assert all(x.tobytes() == y.tobytes() for (_, x), (_, y) in zip(walk, walks[0]))


def test_a_missing_extension_names_the_scipy_floor(tmp_path):
    with pytest.raises(ImportError, match=r"SciPy >= 1\.15"):
        hotlp._load_core(str(tmp_path))


def test_tracer_finds_every_name_it_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from tracing import Tracer

    tracer = Tracer()
    before = hotlp.RangedLp.solve
    with tracer.installed():
        assert hotlp.RangedLp.solve is not before
    assert hotlp.RangedLp.solve is before
