"""Built-in function models with analytically known decomposition values.

Each entry records the DSL text for F and f (so the parser can be
cross-checked against the fast numpy closures actually installed in the
model) plus the closed-form values used as test oracles:

====================  ===========================================  =======
name                  shape                                        span
====================  ===========================================  =======
heaviside             unit step at 0                               [-1, 1]
reciprocal            F = 1/x, non-integrable pole at 0            [-1, 2]
sqrt_singular         F = sqrt(x), integrable edge singularity     [0, 1]
parabola              smooth control with an artificial puncture   [0, 1]
staircase3            three jumps, derivative zero elsewhere       [0, 3]
osc_sin_inv           F = sin(1/x), oscillatory at 0               [-1, 1]
jump_linear           slope 1 with a jump of 2 at x = 1            [0, 2]
====================  ===========================================  =======

``total`` is the endpoint difference of the extended F.  ``kh_value`` and
``basic_sum`` are the plain-integral and basic-sum limits where those exist
(None marks divergence or oscillation).  ``residuals`` maps each exceptional
point to its residual, None when the bracket increments diverge or oscillate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .models import ExceptionalSet, SingularFunctionModel
from .partition import Interval


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    model: SingularFunctionModel
    dsl_F: str
    dsl_f: str
    total: float
    kh_value: float | None
    basic_sum: float | None
    residuals: Mapping[float, float | None]


def _entry(name, F, f, dsl_F, dsl_f, span, points, total, kh_value, basic_sum, residuals):
    model = SingularFunctionModel(
        F=F,
        f=f,
        E=ExceptionalSet(points),
        span=Interval(*span),
        provenance=f"catalog:{name}",
    )
    return CatalogEntry(
        name=name, model=model, dsl_F=dsl_F, dsl_f=dsl_f, total=total,
        kh_value=kh_value, basic_sum=basic_sum, residuals=dict(residuals),
    )


def _build_entries():
    entries = {}

    # unit step: the whole endpoint difference sits in the residual
    entries["heaviside"] = _entry(
        "heaviside",
        F=lambda x: np.where(x <= 0.0, 0.0, 1.0),
        f=lambda x: np.zeros_like(x),
        dsl_F="piecewise{ x <= 0 : 0 ; 0 < x : 1 }",
        dsl_f="0",
        span=(-1.0, 1.0),
        points=(0.0,),
        total=1.0,          # step of size 1; extended derivative is identically 0
        kh_value=0.0,
        basic_sum=1.0,
        residuals={0.0: 1.0},
    )

    # pole: plain integral and basic sum both diverge, total stays finite
    entries["reciprocal"] = _entry(
        "reciprocal",
        F=lambda x: 1.0 / x,
        f=lambda x: -(1.0 / x**2),
        dsl_F="1/x",
        dsl_f="-1/x^2",
        span=(-1.0, 2.0),
        points=(0.0,),
        total=1.5,          # 1/2 - (1/-1); the pole contributions cancel exactly
        kh_value=None,
        basic_sum=None,
        residuals={0.0: None},
    )

    # integrable edge singularity at the left endpoint (one-sided anchor)
    entries["sqrt_singular"] = _entry(
        "sqrt_singular",
        F=lambda x: np.sqrt(x),
        f=lambda x: 1.0 / (2.0 * np.sqrt(x)),
        dsl_F="sqrt(x)",
        dsl_f="1/(2*sqrt(x))",
        span=(0.0, 1.0),
        points=(0.0,),
        total=1.0,          # integral of 1/(2 sqrt(x)) over [0, 1]
        kh_value=1.0,
        basic_sum=0.0,
        residuals={0.0: 0.0},
    )

    # smooth control: the puncture at 1/2 contributes nothing
    entries["parabola"] = _entry(
        "parabola",
        F=lambda x: x**2,
        f=lambda x: 2.0 * x,
        dsl_F="x^2",
        dsl_f="2*x",
        span=(0.0, 1.0),
        points=(0.5,),
        total=1.0,
        kh_value=1.0,
        basic_sum=0.0,
        residuals={0.5: 0.0},
    )

    # three-step staircase; residue-theorem showcase
    # jumps 1/2, 1, -1/4 -> levels 0, 1/2, 3/2, 5/4 (all exact binary64)
    entries["staircase3"] = _entry(
        "staircase3",
        F=lambda x: np.select([x < 0.5, x < 1.5, x < 2.5], [0.0, 0.5, 1.5], default=1.25),
        f=lambda x: np.zeros_like(x),
        dsl_F="piecewise{ x < 0.5 : 0 ; x < 1.5 : 0.5 ; x < 2.5 : 1.5 ; x <= 3 : 1.25 }",
        dsl_f="0",
        span=(0.0, 3.0),
        points=(0.5, 1.5, 2.5),
        total=1.25,
        kh_value=0.0,
        basic_sum=1.25,
        residuals={0.5: 0.5, 1.5: 1.0, 2.5: -0.25},
    )

    # bounded oscillation at 0: bracket increments are 2 sin(1/r)
    entries["osc_sin_inv"] = _entry(
        "osc_sin_inv",
        F=lambda x: np.sin(1.0 / x),
        f=lambda x: -np.cos(1.0 / x) / x**2,
        dsl_F="sin(1/x)",
        dsl_f="-cos(1/x)/x^2",
        span=(-1.0, 1.0),
        points=(0.0,),
        total=2.0 * math.sin(1.0),
        kh_value=None,
        basic_sum=None,
        residuals={0.0: None},
    )

    # unit slope with a jump of 2
    entries["jump_linear"] = _entry(
        "jump_linear",
        F=lambda x: np.where(x < 1.0, x, x + 2.0),
        f=lambda x: np.ones_like(x),
        dsl_F="piecewise{ x < 1 : x ; x >= 1 : x + 2 }",
        dsl_f="1",
        span=(0.0, 2.0),
        points=(1.0,),
        total=4.0,          # F(2) - F(0) = 4: slope contributes 2, jump contributes 2
        kh_value=2.0,
        basic_sum=2.0,
        residuals={1.0: 2.0},
    )

    return entries


ENTRIES: dict[str, CatalogEntry] = _build_entries()

CATALOG_NAMES = tuple(sorted(ENTRIES))


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return ENTRIES[name]
    except KeyError:
        known = ", ".join(CATALOG_NAMES)
        raise KeyError(f"unknown catalog function {name!r}; known: {known}") from None


def catalog(name: str) -> SingularFunctionModel:
    """Fully populated built-in model by name."""
    return catalog_entry(name).model
