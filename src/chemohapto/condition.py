"""Boundedness-condition evaluation and empirical run classification.

A parameter set is accepted through one of two gates: with an elliptic
chemical (tau = 0) any strictly positive extended damping rate of order
r = 1 .. TOWER_MAX suffices; otherwise the product of the uncompensated
sensitivity (chi - mu_1)^+ and the a-priori mass cap must stay below
1 / (2 C^4), where C estimates the grid interpolation constant at
(p, q) = (4, 2), with ||phi||_2 as the lower-order term.  TOWER_MAX
(kinetics.TOWER_MAX = 3) is the tallest tower a double holds, so it is
the highest order whose sample schedule, which starts above e_tower(r),
exists.  The estimate is a lower bound: the best ratio over a test family
(gn_constant_estimate), not the supremum over all fields.  A smaller C
gives a larger 1 / (2 C^4), so a threshold_inequality verdict is not yet
a certificate; that needs an upper bound on C.  Runs are classified from
the recorded sup-norm history: early overflow, sustained growth, or
plateau.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .diagnostics import gn_constant_estimate, plateau_ratio
from .grid import Grid
from .kinetics import TOWER_MAX, damping_rate_estimate, mass_cap
from .solver import InitialData, ModelParams, RunResult

MU_TOL = 1e-3

CASE_TAU0 = "tau0_damping"
CASE_THRESHOLD = "threshold_inequality"
CASE_NONE = "not_satisfied"


@dataclass
class ThresholdReport:
    """Everything the boundedness condition consumed, plus the verdict."""

    mu_r: list          # estimates for r = 1 .. TOWER_MAX (math.inf allowed)
    m1: float
    u0_mass: float
    w_max: float
    cgn: float          # interpolation constant at (4, 2)
    cgn4: float
    chi: float
    tau: float
    inequality_lhs: float
    inequality_rhs: float
    case: str
    satisfied: bool

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ThresholdReport":
        return cls(**d)


def check_boundedness(grid: Grid, params: ModelParams, ic: InitialData) -> ThresholdReport:
    """Evaluate the boundedness condition for the given setup.

    Cases are tried in order: tau0_damping first (tau = 0 and some
    mu_r above MU_TOL for r = 1 .. TOWER_MAX), then the threshold inequality
    (chi - mu_1)^+ * M1 < 1 / (2 C^4); otherwise not_satisfied.
    not_satisfied means "no gate fired", not a blow-up certificate.
    """
    ic.validate(grid, params.tau)
    kin = params.kinetics
    u0_mass = grid.integrate(ic.u0)

    mu_r = [damping_rate_estimate(kin, r) for r in range(1, TOWER_MAX + 1)]
    m1 = mass_cap(kin, u0_mass, grid.area)
    cgn = gn_constant_estimate(grid, 4.0, 2.0)
    cgn4 = cgn ** 4

    mu1 = mu_r[0]
    lhs = max(params.chi - mu1, 0.0) * m1
    rhs = 1.0 / (2.0 * cgn4)

    if params.tau == 0.0 and any(v > MU_TOL for v in mu_r):
        case = CASE_TAU0
    elif lhs < rhs:
        case = CASE_THRESHOLD
    else:
        case = CASE_NONE
    return ThresholdReport(
        mu_r=[float(v) for v in mu_r],
        m1=float(m1),
        u0_mass=float(u0_mass),
        w_max=float(np.max(ic.w0)),
        cgn=float(cgn),
        cgn4=float(cgn4),
        chi=params.chi,
        tau=params.tau,
        inequality_lhs=float(lhs),
        inequality_rhs=float(rhs),
        case=case,
        satisfied=case != CASE_NONE,
    )


CLASS_DIVERGED = "diverged"
CLASS_GROWING = "growing"
CLASS_PLATEAU = "bounded_plateau"
CLASS_UNCLASSIFIED = "unclassified"     # too few records to tell

GROWTH_RATIO = 1.25


@dataclass
class Classification:
    label: str
    plateau: float      # nan when the run ended before enough records

    def to_dict(self) -> dict:
        return asdict(self)


def classify_run(result: RunResult) -> Classification:
    """Label a finished run from its recorded sup-norm history.

    Diverged runs keep their flag regardless of record count; any other
    run with fewer than 16 records is unclassified.  Otherwise the
    second-half to first-half ratio of max linf_u over the finite records
    decides between growing (> 1.25) and plateau; it is nan without 16
    records or 2 finite ones.
    """
    records = result.records
    ratio = math.nan
    if len(records) >= 16:
        times = np.array([rec.t for rec in records])
        vals = np.array([rec.linf_u for rec in records])
        finite = np.isfinite(vals)
        if finite.sum() >= 2:
            ratio = plateau_ratio(times[finite], vals[finite])
    if result.status == "diverged":
        return Classification(CLASS_DIVERGED, ratio)
    if len(records) < 16:
        return Classification(CLASS_UNCLASSIFIED, ratio)
    label = CLASS_GROWING if ratio > GROWTH_RATIO else CLASS_PLATEAU
    return Classification(label, ratio)
