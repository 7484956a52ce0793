"""Correctness checks on the program's outputs.

Every check compares an output against a route computed apart from the
program (``reference``) or against a property the model guarantees, and
records a failure by name.  None compares against a stored copy of an
earlier output.
"""
from __future__ import annotations

import reference

# The flux identity p_in/(p_in + p_out) = r**2/L**2 is exact in the model.
# The program caps the re-entry series, which biases the ratio by up to
# 2.1e-3 relative over delta = 3..300; this tolerance admits that known
# bias and nothing coarser.  The per-layer metric crossing.flux_residual_max
# reports the residual itself.
FLUX_RTOL = 1e-2

# Agreement with the independent routes.  The program's success and rate
# agree with them to ~1e-12 and ~3e-11 relative; tables round to 10
# significant digits (5e-10).
SUCCESS_RTOL = 1e-9
RATE_RTOL = 1e-8


class Checker:
    """Collects check outcomes and the largest Monte Carlo |gap|/SE."""

    def __init__(self):
        self.count = 0
        self.failures: list[str] = []
        self.t_max = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def require(self, passed: bool, name: str, detail: str = ""):
        self.count += 1
        if not passed:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return passed

    def probability(self, name: str, p: float, open_interval: bool = False):
        if open_interval:
            return self.require(0.0 < p < 1.0, name, f"{p!r} not in (0, 1)")
        return self.require(0.0 <= p <= 1.0, name, f"{p!r} not in [0, 1]")

    def flux(self, name: str, p_in: float, p_out: float, r: float, L: float) -> float:
        """Relative residual of the flux identity, checked against FLUX_RTOL."""
        target = r * r / (L * L)
        residual = abs(p_in / (p_in + p_out) - target) / target
        self.require(residual <= FLUX_RTOL, name, f"flux residual {residual:.3g} > {FLUX_RTOL:g}")
        return residual

    def close(self, name: str, value: float, ref: float, rtol: float):
        gap = abs(value - ref)
        return self.require(
            gap <= rtol * abs(ref), name,
            f"{value!r} vs reference {ref!r} (relative gap {gap / abs(ref):.3g} > {rtol:g})",
        )

    def mc_agrees(self, name: str, mc: float, se: float, analytic: float, replications: int,
                  samples: int | None = None):
        """|mc - analytic| within the Student-t bound of the replication SE.

        For a proportion (``samples`` given) the SE is floored at the
        binomial SE of the analytic value, since replications that all
        read the same value report SE 0.
        """
        if samples is not None:
            se = max(se, reference.proportion_se(analytic, samples))
        gap = abs(mc - analytic)
        if not se > 0.0:
            return self.require(gap == 0.0, name, f"gap {gap:.3g} with zero standard error")
        z = gap / se
        self.t_max = max(self.t_max, z)
        bound = reference.t_bound(replications)
        return self.require(z <= bound, name, f"|gap|/SE = {z:.3g} > t bound {bound:.3g}")

    def nonincreasing(self, name: str, values, slack: float = 1e-12):
        values = list(values)
        ok = all(b <= a + slack * max(abs(a), 1.0) for a, b in zip(values, values[1:]))
        return self.require(ok, name, "not non-increasing: " + ", ".join(f"{v:.6g}" for v in values))

    def at_most(self, name: str, value: float, bound: float, rtol: float = 1e-12):
        return self.require(value <= bound * (1.0 + rtol), name, f"{value!r} > {bound!r}")
