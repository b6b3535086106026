"""Scaling metamorphic tests: the profiles form a family f -> lam^{2/(1-m)} f(lam r).

An origin solve from eta0 = lam^{2/(1-m)} to r_max = R/lam is the image of
the solve from eta0 = 1 to R, and a far-field solve from lam^{2/(1-m)-k} eta
to lam R that of the solve from eta to R (g -> lam^{2/(1-m)-k} g(s/lam)).
Each image must end on the same event with the same decay label, verdict
statuses, shape and pass or fail, its residual within 1% of its base's, and
L1 = lim r^k f must carry the factor lam^{2/(1-m)-k}.  The beta* gap
depends on beta alone, so a search from any eta0 finds the same root.  No
check may read an absolute size of f.
"""
import pytest

from fdprof import cli
from fdprof import (ContinuationFailed, build_report, derive_params,
                    find_anomalous_beta, solve_farfield_profile,
                    solve_origin_profile)

from conftest import RMAX, SWEEP_TUPLES, TOL


def _outcome(solve, p, datum, r_max):
    """((terminal event, decay label, verdict statuses, shape label, passes),
    L1, residual) of a solve; a run that ends early gives its event alone."""
    try:
        rep = build_report(solve(p, datum, r_max, tol=TOL))
    except ContinuationFailed as e:
        return (e.terminal,), None, None
    statuses = tuple(sorted((k, v.status) for k, v in rep.inequalities.items()))
    l1 = rep.limits.l1
    return ((rep.terminal_event, rep.decay.label, statuses, rep.shape.label,
             l1 is None, cli._passes(rep.residual, rep.inequalities, TOL)),
            None if l1 is None else l1.value, rep.residual)


def _mismatches(solve, data, lam):
    """The tuples whose image under lam does not match their own solve."""
    bad = []
    for (n, m, beta), datum in zip(SWEEP_TUPLES, data):
        p = derive_params(n, m, 1.0, beta)
        origin = solve is solve_origin_profile
        gain = lam ** (2.0 / (1.0 - m) - (0.0 if origin else p.k))
        base, l1, res = _outcome(solve, p, datum, RMAX)
        image, l1_lam, res_lam = _outcome(solve, p, gain * datum,
                                          RMAX / lam if origin else RMAX * lam)
        if image != base:
            bad.append(((n, m, beta), base, image))
        elif res is not None and not abs(res_lam / res - 1.0) <= 0.01:
            bad.append(((n, m, beta), res, res_lam))
        elif l1 is not None:
            l1_back = l1_lam * lam ** (p.k - 2.0 / (1.0 - m))
            if not abs(l1_back / l1 - 1.0) <= 1e-9:
                bad.append(((n, m, beta), l1, l1_back))
    return bad


@pytest.mark.parametrize("lam", [1e-40, 1e-20, 1e-10, 1e10, 1e20, 1e40])
def test_origin_solves_scale(lam):
    assert _mismatches(solve_origin_profile, [1.0] * len(SWEEP_TUPLES), lam) == []


@pytest.mark.parametrize("lam", [1e-40, 1e-20, 1e-10, 1e10, 1e20, 1e30, 1e40])
def test_farfield_solves_scale(cache, lam):
    etas = [cache.farfield(*t).boundary for t in SWEEP_TUPLES]
    assert _mismatches(solve_farfield_profile, etas, lam) == []


@pytest.mark.parametrize("n, m", [(4, 1 / 3), (5, 0.45), (3, 0.2)])
def test_beta_star_is_independent_of_eta0(n, m):
    found = [find_anomalous_beta(n, m, 1.0, eta0, (-0.45, 0.45)).beta_star
             for eta0 in (1.0, 1e-30, 1e30)]
    assert found[1] == pytest.approx(found[0], abs=1e-9)
    assert found[2] == pytest.approx(found[0], abs=1e-9)
