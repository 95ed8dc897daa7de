"""Constraint-scan bookkeeping shared by the certificate builders.

A CheckRecord tracks one named constraint family scanned exhaustively over
its index set: how many comparisons ran, which failed (with witnesses), and
the minimum slack seen. Certificates bundle a CheckList of records plus the
dual variable totals; feasibility means no non-diagnostic record has violations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .numutil import THRESHOLD_REL, json_number, leq, to_float


class AnalysisError(ValueError):
    """A certificate or classification precondition does not hold."""


@dataclass(frozen=True)
class Violation:
    check: str
    witness: tuple
    lhs: float
    rhs: float


# keep at most this many explicit violations per record
VIOLATION_CAP = 50


class _Unset(float):
    """min_slack before a record's first check: inf, yet above every slack,
    NaN and inf included, so that check names the witness."""

    def __gt__(self, other):
        return True


@dataclass
class CheckRecord:
    """One constraint family's scan.

    require_leq counts each comparison lhs <= rhs and keeps the first
    witness of the minimum float slack rhs - lhs; failures are counted, and
    the first VIOLATION_CAP kept. Two floats, the common case, cost one
    subtraction and one comparison when the check holds. An inf or NaN slack
    is kept as min_slack inf, so it hides no later finite minimum.
    """

    name: str
    diagnostic: bool = False  # diagnostics never affect feasibility
    checked: int = 0
    violation_count: int = 0
    violations: list = field(default_factory=list)
    min_slack: float = _Unset(math.inf)
    min_witness: tuple = ()

    def require_leq(self, lhs, rhs, witness):
        """Record the comparison lhs <= rhs (with relative tolerance).

        Unless both sides are floats, each is converted to float once; a
        value too large for a float counts as +-inf. The outcome is leq's:
        on the floats unless both sides are exact. Conversion to float is
        monotone, so float(lhs) < float(rhs) settles that lhs <= rhs holds
        without leq; exact sides compare exactly only when it does not.
        """
        self.checked += 1
        if type(lhs) is float and type(rhs) is float:
            slack = rhs - lhs
            if slack < self.min_slack:
                self.min_slack = slack if slack < math.inf else math.inf
                self.min_witness = witness
            if lhs <= rhs or leq(lhs, rhs):
                return True
            self._fail(witness, lhs, rhs)
            return False
        fl, fr = to_float(lhs), to_float(rhs)
        slack = fr - fl
        if slack < self.min_slack:
            self.min_slack = slack if slack < math.inf else math.inf
            self.min_witness = witness
        if type(lhs) is float or type(rhs) is float:
            ok = leq(fl, fr)
        else:
            ok = fl < fr or leq(lhs, rhs)
        if not ok:
            self._fail(witness, fl, fr)
        return ok

    def require_below(self, flhs, low, times):
        """Count `times` comparisons lhs <= r, given flhs = float(lhs) and a
        float low <= float(r) for each r, if the floats decide them:
        flhs < low, so each lhs < r, as conversion to float is monotone,
        and fl(low - flhs), at most each slack float(r) - flhs as rounding
        is monotone too, is no new minimum. The records are then those of
        require_leq on each. A NaN low, or a record's first check, is never
        counted. This is the one way to settle a run of comparisons at once;
        return whether they were counted, and on False record them one by one.
        """
        if flhs < low and not low - flhs < self.min_slack:
            self.checked += times
            return True
        return False

    def require_equal(self, a, b, witness):
        """Record a == b as the two comparisons a <= b and b <= a."""
        return self.require_leq(a, b, witness) & self.require_leq(b, a, witness)

    def require(self, cond: bool, witness, lhs=0.0, rhs=0.0):
        """Record a plain boolean condition (slack bookkeeping skipped)."""
        self.checked += 1
        if not cond:
            self._fail(witness, to_float(lhs), to_float(rhs))
        return bool(cond)

    def _fail(self, witness, lhs: float, rhs: float):
        self.violation_count += 1
        if len(self.violations) < VIOLATION_CAP:
            self.violations.append(
                Violation(check=self.name, witness=witness, lhs=lhs, rhs=rhs)
            )

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "diagnostic": self.diagnostic,
            "checked": self.checked,
            "violations": self.violation_count,
        }
        if self.checked and math.isfinite(self.min_slack):
            d["min_slack"] = self.min_slack
            d["min_slack_witness"] = [_plain(x) for x in self.min_witness]
        if self.violations:
            d["violation_sample"] = [
                {"witness": [_plain(x) for x in v.witness], "lhs": v.lhs, "rhs": v.rhs}
                for v in self.violations[:5]
            ]
        return d


class CheckList(list):
    """A certificate's check records, in the order they were added."""

    def add(self, name: str, diagnostic: bool = False) -> CheckRecord:
        self.append(CheckRecord(name, diagnostic))
        return self[-1]


def require_own_trace(trace, instance):
    """Refuse an instance other than the one `trace` simulated, which would
    pair that trace's speedup with another instance's jobs."""
    if instance != trace.instance:
        raise AnalysisError("the instance is not the one the trace simulated")


def _plain(x):
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    return to_float(x)


@dataclass
class DualCertificate:
    family: str           # weaker | single_job | general
    gamma: object
    gamma_required: float
    alpha_total: object
    beta_total: object
    checks: list
    flags: dict = field(default_factory=dict)

    @property
    def gamma_ok(self) -> bool:
        """The speedup meets the family's threshold, up to THRESHOLD_REL;
        a speedup too large for a float meets every threshold."""
        return to_float(self.gamma) >= self.gamma_required * (1 - THRESHOLD_REL)

    @property
    def objective(self):
        return self.alpha_total - self.beta_total

    @property
    def feasible(self) -> bool:
        return all(r.ok for r in self.checks if not r.diagnostic)

    def violations(self):
        out = []
        for r in self.checks:
            if not r.diagnostic:
                out.extend(r.violations)
        return out

    def check(self, name: str) -> CheckRecord:
        for r in self.checks:
            if r.name == name:
                return r
        raise KeyError(name)

    def min_slack_table(self):
        """(name, min slack, witness) per record; the slack is None for a
        record that kept none: it ran no check, or only plain `require`s."""
        return [
            (r.name, None if type(r.min_slack) is _Unset else r.min_slack, r.min_witness)
            for r in self.checks
        ]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "gamma": json_number(self.gamma),
            "gamma_required": self.gamma_required,
            "gamma_ok": self.gamma_ok,
            "feasible": self.feasible,
            "alpha_total": json_number(self.alpha_total),
            "beta_total": json_number(self.beta_total),
            "objective": json_number(self.objective),
            "flags": dict(self.flags),
            "checks": [r.to_dict() for r in self.checks],
        }


def certified_ratio(certificate: DualCertificate, trace):
    """Machine-checked competitive-ratio upper bound C * gamma_total / dual.

    gamma_total folds in the capacity-assumption preprocessing loss (a factor
    of the class count) for the families that require that assumption. This
    is the one rule for when a ratio is certified: it raises AnalysisError,
    naming the reason, on an infeasible certificate or a non-positive dual
    objective, where the dual value is not a usable lower bound.
    """
    if not certificate.feasible:
        raise AnalysisError("certificate is infeasible; no ratio can be certified")
    obj = certificate.objective
    if not obj > 0:
        raise AnalysisError(f"dual objective {to_float(obj)} is not positive")
    k = len(trace.instance.classes)
    preprocessing = k if certificate.family in ("single_job", "general") else 1
    return trace.objective * certificate.gamma * preprocessing / obj
