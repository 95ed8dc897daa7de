"""Check records and certificates: slack accounting, caps, serialization."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagsched.numutil import REL_TOL, THRESHOLD_REL, leq
from bagsched.report import VIOLATION_CAP, CheckRecord, DualCertificate, Violation


def test_require_leq_accounting():
    rec = CheckRecord("demo")
    rec.require_leq(1.0, 2.0, ("a",))
    rec.require_leq(3.0, 2.0, ("b",))
    rec.require_leq(1.9, 2.0, ("c",))
    assert rec.checked == 3
    assert rec.violation_count == 1
    assert not rec.ok
    assert rec.violations[0].witness == ("b",)
    # worst margin wins the slack slot, violations included
    assert rec.min_witness == ("b",)
    assert rec.min_slack < 0

    clean = CheckRecord("clean")
    clean.require_leq(1.0, 2.0, ("a",))
    clean.require_leq(1.9, 2.0, ("c",))
    assert clean.ok
    assert clean.min_witness == ("c",)


def test_violation_cap_keeps_count():
    rec = CheckRecord("capped")
    for i in range(VIOLATION_CAP + 25):
        rec.require_leq(2.0, 1.0, (i,))
    assert rec.violation_count == VIOLATION_CAP + 25
    assert len(rec.violations) == VIOLATION_CAP


def test_certificate_serialization():
    ok = CheckRecord("alpha")
    ok.require_leq(1.0, 2.0, ("x",))
    diag = CheckRecord("extra", diagnostic=True)
    diag.require_leq(5.0, 1.0, ("y",))  # diagnostic misses don't break it
    cert = DualCertificate(
        family="weaker", gamma=4.0, gamma_required=2.0,
        alpha_total=1.0, beta_total=0.25, checks=[ok, diag], flags={"n": 3})
    assert cert.feasible  # only hard checks count
    assert cert.objective == 0.75
    doc = json.loads(json.dumps(cert.to_dict()))
    assert doc["family"] == "weaker"
    assert doc["feasible"] is True
    names = {row["name"] for row in doc["checks"]}
    assert names == {"alpha", "extra"}
    table = cert.min_slack_table()
    assert any(row[0] == "alpha" for row in table)


def test_a_certificate_has_no_record_of_an_unknown_name():
    cert = DualCertificate(family="weaker", gamma=4.0, gamma_required=2.0,
                           alpha_total=1.0, beta_total=0.25, checks=[CheckRecord("alpha")])
    assert cert.check("alpha").name == "alpha"
    with pytest.raises(KeyError):
        cert.check("beta")


def test_gamma_ok_at_the_threshold_tolerance():
    # a speedup meets the threshold when it is below it by at most
    # THRESHOLD_REL of it; a few ulps further down it does not
    required = 2 * math.log2(1000)
    edge = required * (1 - THRESHOLD_REL)

    def cert(gamma):
        return DualCertificate(family="weaker", gamma=gamma, gamma_required=required,
                               alpha_total=1.0, beta_total=0.0, checks=[])

    below = edge
    for _ in range(3):
        below = math.nextafter(below, 0.0)
    assert cert(edge).gamma_ok
    assert cert(required).gamma_ok
    assert not cert(below).gamma_ok
    assert not cert(Fraction(below)).gamma_ok
    assert cert(Fraction(10) ** 400).gamma_ok  # past the float range


def test_non_finite_slacks_are_recorded():
    rec = CheckRecord("floats")
    assert rec.require_leq(1.0, math.inf, (0,))        # slack +inf
    assert rec.require_leq(-math.inf, 1.0, (1,))       # slack +inf
    assert rec.require_leq(math.inf, math.inf, (2,))   # slack NaN, leq passes
    assert not rec.require_leq(math.nan, 1.0, (3,))    # slack NaN, leq fails
    assert not rec.require_leq(1.0, -math.inf, (4,))   # slack -inf
    assert rec.checked == 5
    assert rec.min_slack == -math.inf and rec.min_witness == (4,)
    assert [v.witness for v in rec.violations] == [(3,), (4,)]


def test_infinite_lhs_is_a_violation():
    # an lhs that overflowed to inf gets no slack from its own magnitude
    rec = CheckRecord("overflow")
    assert not rec.require_leq(math.inf, 5.0, ("over",))
    assert rec.violation_count == 1 and not rec.ok
    assert rec.violations == [Violation("overflow", ("over",), math.inf, 5.0)]


def test_fractions_too_large_for_a_float_are_recorded():
    huge = Fraction(10) ** 400
    rec = CheckRecord("exact")
    assert rec.require_leq(Fraction(1, 3), huge, ("up",))       # slack +inf
    assert rec.require_leq(huge, huge + 1, ("tight",))          # inf - inf
    assert not rec.require_leq(huge + 1, huge, ("over",))       # exact compare
    assert not rec.require_leq(10 ** 400, Fraction(1, 2), ("int",))
    assert rec.require_leq(1.0, huge, ("mixed",))               # on the floats
    assert rec.violations == [
        Violation("exact", ("over",), math.inf, math.inf),
        Violation("exact", ("int",), math.inf, 0.5),
    ]
    json.dumps(rec.to_dict())


class ParentRecord:
    """CheckRecord.require_leq and to_dict as first written: each side
    converted twice, and leq's float and exact branches written out. Defined
    for finite slacks only."""

    def __init__(self, name):
        self.name = name
        self.checked = 0
        self.violation_count = 0
        self.violations = []
        self.min_slack = math.inf
        self.min_witness = ()

    @staticmethod
    def leq(a, b):
        if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
            return a <= b
        fa, fb = float(a), float(b)
        return fa <= fb + REL_TOL * max(abs(fa), abs(fb), 1.0)

    def require_leq(self, lhs, rhs, witness):
        self.checked += 1
        slack = float(rhs) - float(lhs)
        if slack < self.min_slack:
            self.min_slack = slack
            self.min_witness = witness
        if not self.leq(lhs, rhs):
            self.violation_count += 1
            if len(self.violations) < VIOLATION_CAP:
                self.violations.append(
                    Violation(self.name, witness, float(lhs), float(rhs)))
            return False
        return True

    def to_dict(self):
        d = {"name": self.name, "diagnostic": False, "checked": self.checked,
             "violations": self.violation_count}
        if self.checked and math.isfinite(self.min_slack):
            d["min_slack"] = self.min_slack
            d["min_slack_witness"] = list(self.min_witness)
        if self.violations:
            d["violation_sample"] = [
                {"witness": list(v.witness), "lhs": v.lhs, "rhs": v.rhs}
                for v in self.violations[:5]]
        return d


def _float_like(x):
    return st.sampled_from([float(x), Fraction(x), x])


_values = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.integers(min_value=-10 ** 30, max_value=10 ** 30),
    st.fractions(min_value=-10 ** 12, max_value=10 ** 12, max_denominator=10 ** 9),
)


@st.composite
def _pairs(draw):
    kind = draw(st.sampled_from(["any", "zero", "decade", "boundary"]))
    if kind == "any":
        return draw(_values), draw(_values)
    if kind == "zero":  # slack exactly 0, also across types
        x = draw(st.floats(min_value=-1e300, max_value=1e300))
        return draw(_float_like(x)), draw(_float_like(x))
    if kind == "decade":  # slacks that are exact powers of ten
        e = draw(st.integers(min_value=-40, max_value=40))
        slack = draw(st.sampled_from([10.0 ** e, Fraction(10) ** e]))
        return 0, slack
    # one ulp either side of the REL_TOL boundary of leq's float branch
    rhs = draw(st.floats(min_value=-1e12, max_value=1e12))
    edge = rhs + REL_TOL * max(abs(rhs), 1.0)
    step = draw(st.integers(min_value=-2, max_value=2))
    lhs = edge
    for _ in range(abs(step)):
        lhs = math.nextafter(lhs, math.copysign(math.inf, step))
    return draw(_float_like(lhs)), draw(_float_like(rhs))


# two floats one ulp inside the REL_TOL edge with lhs > rhs: the float fast
# path must fall back to leq's slack and pass
@example([(math.nextafter(3.0 + REL_TOL * 3.0, 0.0), 3.0)])
@settings(max_examples=300, deadline=None)
@given(st.lists(_pairs(), max_size=60))
def test_record_matches_first_definition(pairs):
    ref = ParentRecord("diff")
    rec = CheckRecord("diff")
    for i, (lhs, rhs) in enumerate(pairs):
        assert rec.require_leq(lhs, rhs, (i,)) == ref.require_leq(lhs, rhs, (i,))
    assert rec.to_dict() == ref.to_dict()
    assert rec.min_witness == ref.min_witness
    assert rec.violations == ref.violations


def test_a_record_that_ran_names_a_witness():
    # both sides saturate to inf, so the slack is NaN; the record once kept
    # min_witness == () after running its check
    rec = CheckRecord("x")
    assert rec.require_leq(Fraction(10) ** 400, Fraction(10) ** 401, ("w",))
    assert rec.min_witness == ("w",)
    assert rec.min_slack == math.inf
    assert "min_slack" not in rec.to_dict()


def test_a_non_finite_slack_hides_no_later_minimum():
    huge = Fraction(10) ** 400
    for first, later in (((math.inf, math.inf), (1.0, 1.5)),        # float NaN
                         ((1.0, math.inf), (1.0, 1.5)),             # float +inf
                         ((huge, 10 * huge), (Fraction(1), Fraction(3, 2)))):
        rec = CheckRecord("mixed")
        assert rec.require_leq(*first, (0,))
        assert rec.min_witness == (0,)
        assert rec.require_leq(*later, (1,))
        assert rec.require_leq(*first, (2,))
        assert not rec.require_leq(math.nan, 1.0, (3,))
        assert rec.min_slack == 0.5 and rec.min_witness == (1,)
        assert rec.to_dict()["min_slack_witness"] == [1]


def test_require_below_counts_only_what_the_floats_settle():
    # a fresh record declines, so that its first check names a witness
    fresh = CheckRecord("fresh")
    assert not fresh.require_below(0.0, 1.0, 3)
    assert fresh.checked == 0 and fresh.min_witness == ()

    rec = CheckRecord("run")
    rec.require_leq(1.0, 1.5, ("a",))
    kept = (rec.to_dict(), rec.min_slack, rec.min_witness)
    # a tie is not below, and a NaN low settles nothing: both decline and
    # leave the record as it was
    assert not rec.require_below(2.0, 2.0, 4)
    assert not rec.require_below(0.0, math.nan, 4)
    assert (rec.to_dict(), rec.min_slack, rec.min_witness) == kept
    # a slack one ulp below the minimum is a new minimum: declined
    assert not rec.require_below(1.0, math.nextafter(1.5, 0.0), 4)
    # a slack equal to the minimum is none: counted, the witness kept
    assert rec.require_below(1.0, 1.5, 4)
    assert rec.checked == 5 and rec.violation_count == 0
    assert rec.min_slack == 0.5 and rec.min_witness == ("a",)
