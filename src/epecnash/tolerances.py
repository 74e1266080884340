"""Numerical tolerances shared across the solver stack.

All tolerances are absolute.  Instance coefficients stay below ~2e4, so
double precision with 1e-7 feasibility margins is comfortable.
"""

# Constraint residual / variable bound slack accepted as feasible.
FEAS_TOL = 1e-7

# Product x_i * z_i below which a complementarity pair counts as satisfied.
COMP_TOL = 1e-7

# Convex-combination weights at or below this are numerical dust and dropped.
DELTA_MIN = 1e-8

# A best response must improve a leader's payoff by more than this (absolute)
# to count as a profitable deviation.
DEVIATION_TOL = 1e-6

# Slack allowed on market clearing (every solve's profile, ``report`` and
# the CLI's ``validate``) and on an energy price cap (``report``).
REPORT_TOL = 1e-6

# Slack on the planner's optimal value in the row that keeps a pure search of
# a market game to the planner's optima (``algorithms.pure_enumeration``).
PLANNER_SLACK = 1e-7

# Refuse to enumerate pieces of a complementarity set beyond this many pairs.
ENUM_CAP = 24
