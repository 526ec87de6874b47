"""The bits of the critical path: critical_test's reports and DuSolution's
W, at floats and on an array, against sha256 digests recorded when each
panel was fitted on its own and W was read through chebval."""

import hashlib

import numpy as np
import pytest

from schwarzlab import variation
from schwarzlab.closed_form import MobiusFamily
from schwarzlab.variation import BumpFn, ExprCurve, MobiusCurve, critical_test, solve_du

# the curves the critical workload probes: two expression curves, an S = 0
# (sigma = 0) and an S != 0 Moebius curve
PIN_CURVES = {
    "tan": lambda: ExprCurve("tan(t)", (0.1, 1.0)),
    "exp": lambda: ExprCurve("exp(2*t)", (0.0, 1.0)),
    "mobius0": lambda: MobiusCurve(MobiusFamily(2.0, 1.0, 0.5, 1.0, 0.0), (0.0, 1.0)),
    "mobius": lambda: MobiusCurve(MobiusFamily(1.0, 0.3, 0.2, 1.0, 1.5), (0.0, 1.0)),
}


def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def _report_digest(name):
    u = PIN_CURVES[name]()
    return _digest([repr(critical_test(u, *u.domain, n=3, seed=seed)) for seed in (0, 7)])


def _w_digest():
    """W of a lone bump's and a two-bump DuSolution on tan at floats (the
    ends, inside and past both ends) and on the array of those points."""
    u = PIN_CURVES["tan"]()
    ts = np.concatenate([[0.1, 1.0], np.linspace(0.0, 1.1, 45)])
    rows = []
    for phi in (BumpFn(0.55, 0.3, 1.1), variation.LinearCombination([(1.0, BumpFn(0.3, 0.1)),
                                                                    (-0.6, BumpFn(0.7, 0.2, 0.9))])):
        v = solve_du(u, phi, 0.3)
        rows += [repr(v._cumulative(t)) for t in ts.tolist()]
        rows += [repr(x) for x in v._cumulative(ts).tolist()]
    return _digest(rows)


def _fingerprint():
    """The bits of numpy's sin, cos, exp and log at floats and on an array,
    and of the one-panel fit at 1 and 2 columns (BLAS's gemv and gemm) on
    values built by arithmetic alone."""
    xs = np.linspace(-2.5, 2.5, 23)
    rows = [repr(float(f(x))) for f in (np.sin, np.cos, np.exp) for x in xs.tolist()]
    rows += [repr(x) for f in (np.sin, np.cos, np.exp) for x in f(xs).tolist()]
    rows += [repr(float(np.log(x))) for x in (xs * xs + 0.1).tolist()]
    rows += [repr(x) for x in np.log(xs * xs + 0.1).tolist()]
    v = (np.arange(40.0) * 0.37) % 1.0 - 0.5
    for values in (v[:variation.CHEB_N], v.reshape(variation.CHEB_N, 2)):
        rows += [repr(x) for x in np.ravel(variation._CHEB_FIT @ values).tolist()]
    return _digest(rows)


# Recorded with each panel fitted on its own (_CHEB_FIT @ v, one panel at a
# time) and W read through chebval.  They hold only where numpy's ufuncs and
# BLAS give the bits the fingerprint recorded.
PINNED_FINGERPRINT = "339b68a8f2e307c2"
PINNED_REPORTS = {
    "exp": "1836c6a6cc6ba981",
    "mobius": "3eb97b72bed40b03",
    "mobius0": "75b48e51da88f043",
    "tan": "09c810fc76b6e0a8",
}
PINNED_W = "6f7acbbc8a45a0f9"


def _skip_unless_recorded_kernels():
    if _fingerprint() != PINNED_FINGERPRINT:
        pytest.skip("numpy's kernels here give other bits than those the pins were recorded with")


@pytest.mark.parametrize("name", sorted(PIN_CURVES))
def test_critical_test_reports_keep_their_bits(name):
    _skip_unless_recorded_kernels()
    assert _report_digest(name) == PINNED_REPORTS[name]


def test_du_solution_w_keeps_its_bits():
    _skip_unless_recorded_kernels()
    assert _w_digest() == PINNED_W
