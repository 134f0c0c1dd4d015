"""Regularity indices tied to the septic gKdV scaling.

The equation u_t + u_xxx + u^7 u_x = 0 is invariant under
u -> lam^{-2/7} u(x/lam, t/lam^3), which fixes the critical Sobolev index
3/14. All analysis exponents derive from one small parameter eps.
"""

from __future__ import annotations

CRITICAL_INDEX = 3.0 / 14.0
AMPLITUDE_EXPONENT = -2.0 / 7.0
DATA_INDEX_BASE = 17.0 / 112.0

EPSILON_MAX = 0.2


def validate_epsilon(eps: float) -> float:
    if not 0.0 < eps <= EPSILON_MAX:
        raise ValueError(f"epsilon must lie in (0, {EPSILON_MAX}], got {eps}")
    return float(eps)


def sigma_index(eps: float) -> float:
    """Solution-space regularity 3/14 + 2*eps."""
    return CRITICAL_INDEX + 2.0 * eps


def b_index(eps: float) -> float:
    """Dispersive-weight exponent 1/2 + eps/24."""
    return 0.5 + eps / 24.0


def dual_b_index(eps: float) -> float:
    """Exponent 1/2 - eps/12 carried by the dual factor in the pairing bounds."""
    return 0.5 - eps / 12.0


def data_index(eps: float) -> float:
    """Default data regularity 17/112 + eps (just above the method's floor)."""
    return DATA_INDEX_BASE + eps
