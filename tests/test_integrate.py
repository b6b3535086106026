"""Outward continuation: stepper accuracy, events, stitching, extinction."""
import numpy as np
import pytest

from conftest import _flux, _gflux, f_exact, g_exact, rk4_oracle
from fdprof import (ContinuationFailed, OdeState, Profile, TerminalEvent,
                    advance_f, advance_g, derive_params, kernels,
                    solve_farfield_profile, solve_origin_profile)
from fdprof.profile import hermite_many

CF = derive_params(4, 1 / 3, 1.0, 0.0)


def _hermite_refine(r, K=16):
    t = np.linspace(0.0, 1.0, K + 1)[:-1]
    dense = (r[:-1, None] + np.diff(r)[:, None] * t[None, :]).ravel()
    return np.concatenate([dense, [r[-1]]])


def test_advance_f_closed_form():
    st = OdeState(0.5, float(f_exact(0.5)), _flux(CF, 0.5))
    tr = advance_f(CF, st, 5.0, tol=1e-9)
    assert tr.terminal is TerminalEvent.REACHED_RMAX
    assert tr.r[-1] == pytest.approx(5.0, rel=1e-14)
    assert np.max(np.abs(tr.v - f_exact(tr.r))) <= 1e-7
    assert np.all(np.diff(tr.r) > 0.0)
    assert np.all(tr.step_errors <= 1.0)


def test_advance_g_closed_form():
    st = OdeState(0.5, float(g_exact(0.5)), _gflux(CF, 0.5))
    tr = advance_g(CF, st, 5.0, tol=1e-9)
    assert tr.terminal is TerminalEvent.REACHED_RMAX
    assert np.max(np.abs(tr.v - g_exact(tr.r)) / g_exact(tr.r)) <= 1e-7


def test_zero_length_advance_is_identity():
    st = OdeState(0.5, float(f_exact(0.5)), _flux(CF, 0.5))
    tr = advance_f(CF, st, 0.5, tol=1e-9)
    assert tr.r.size == 1
    assert tr.v[0] == st.v and tr.flux[0] == st.flux
    assert tr.terminal is TerminalEvent.REACHED_RMAX
    assert tr.end.r == st.r and tr.end.v == st.v


def test_backward_target_rejected():
    st = OdeState(0.5, float(f_exact(0.5)), _flux(CF, 0.5))
    with pytest.raises(ValueError, match="below the start radius"):
        advance_f(CF, st, 0.25, tol=1e-9)


def test_zero_error_step_grows_at_cap():
    # A = B = 0 and P0 = 0 keep v = 1 exactly, so every step's error
    # estimate is exactly zero and the controller must not divide by it
    rs, vs, _, Ps, _, errs, tag = kernels.integrate_flux_system(
        2 / 3, 3, 3.0, 0.0, 0.0, 0.5, 1.0, 0.0, 2.0, 1e-9)
    assert tag == kernels.TAG_RMAX
    assert rs[-1] == 2.0
    assert np.all(vs == 1.0) and np.all(Ps == 0.0) and np.all(errs == 0.0)


def test_against_fixed_step_rk4_f_side():
    st = OdeState(0.5, float(f_exact(0.5)), _flux(CF, 0.5))
    tr = advance_f(CF, st, 2.0, tol=1e-9)
    vs, Ps = rk4_oracle(CF, 3.0, CF.alpha, CF.beta, 0.5, st.v, st.flux,
                        tr.r[1:])
    assert np.max(np.abs(tr.v[1:] - vs)) <= 1e-8
    assert np.max(np.abs(tr.flux[1:] - Ps)) <= 1e-7


def test_against_fixed_step_rk4_g_side():
    # nonzero beta exercises coefficients the closed form cannot reach
    p = derive_params(4, 0.25, 1.0, 0.2)
    w = p.n + p.sigma - 3.0
    tr = advance_g(p, OdeState(0.5, 1.0, -0.05), 2.0, tol=1e-9)
    vs, Ps = rk4_oracle(p, w, p.alpha_tilde, p.beta_tilde, 0.5, 1.0, -0.05,
                        tr.r[1:])
    assert np.max(np.abs(tr.v[1:] - vs)) <= 1e-8
    assert np.max(np.abs(tr.flux[1:] - Ps)) <= 1e-7


def test_convergence_order_at_least_four():
    st = OdeState(0.5, float(f_exact(0.5)), _flux(CF, 0.5))
    pts = []
    for tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        tr = advance_f(CF, st, 5.0, tol=tol)
        err = abs(tr.v[-1] - float(f_exact(5.0)))
        pts.append((4.5 / (tr.r.size - 1), max(err, 1e-16)))
    slope = np.polyfit(np.log([h for h, _ in pts]),
                       np.log([e for _, e in pts]), 1)[0]
    assert slope >= 4.0


def test_nodal_flux_relation():
    st = OdeState(0.5, float(f_exact(0.5)), _flux(CF, 0.5))
    tr = advance_f(CF, st, 5.0, tol=1e-9)
    lhs = tr.flux
    rhs = tr.r ** 3 * tr.v ** (CF.m - 1.0) * tr.vr
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


@pytest.mark.parametrize("solve, p, boundary", [
    (solve_origin_profile, CF, 1.0),
    (solve_farfield_profile, CF, 4096.0),
    (solve_farfield_profile, derive_params(3, 0.3, 1.0, 0.0), 1.0),
    (solve_farfield_profile, derive_params(3, 0.2, 1.0, 0.05), 0.7),
], ids=["origin", "farfield-regular", "farfield-singular", "farfield-drift"])
def test_chart_matches_stored_nodes(solve, p, boundary):
    """The chart's flux relations reproduce the stored flux data on every
    node, the Picard nodes and the stepper's accepted steps alike."""
    prof = solve(p, boundary, 50.0, tol=1e-9)
    assert 0 < prof.n_local < prof.r.size
    chart = prof.chart
    np.testing.assert_allclose(chart.flux(prof.r, prof.v, prof.vr), prof.flux,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(chart.dflux(prof.r, prof.v, prof.vr), prof.dflux,
                               rtol=1e-12, atol=0.0)


def test_stitched_profile_shape():
    prof = solve_origin_profile(CF, 1.0, 50.0, tol=1e-9)
    assert prof.terminal is TerminalEvent.REACHED_RMAX
    assert prof.r_end == pytest.approx(50.0, rel=1e-14)
    assert np.all(np.diff(prof.r) > 0.0)
    assert 0 < prof.n_local < prof.r.size
    assert prof.r[prof.n_local - 1] < prof.eps <= prof.r[prof.n_local]
    # floor event never fired, so every node sits above the floor
    assert np.min(prof.v) > 1e-30


def test_seam_is_continuous():
    prof = solve_origin_profile(CF, 1.0, 50.0, tol=1e-9)
    eps = prof.eps
    lo = float(prof.value_at(eps * (1.0 - 1e-12)))
    hi = float(prof.value_at(eps * (1.0 + 1e-12)))
    assert abs(hi - lo) <= 10 * prof.tol


def test_dense_output_matches_closed_form():
    prof = solve_origin_profile(CF, 1.0, 50.0, tol=1e-9)
    x = np.geomspace(prof.r[0], 50.0, 700)
    assert np.max(np.abs(prof.value_at(x) - f_exact(x))) <= 1e-7


def test_flux_integral_form():
    """The flux at r equals minus the weighted source integral from 0,
    closing the loop between P' and its integrated representation."""
    p = derive_params(4, 1 / 3, 1.0, 0.25)
    prof = solve_origin_profile(p, 1.0, 50.0, tol=1e-9)
    dense = _hermite_refine(prof.r)
    v = hermite_many(prof.r, prof.v, prof.vr, dense)
    P = hermite_many(prof.r, prof.flux, prof.dflux, dense)
    vr = v ** (1.0 - p.m) * P / dense ** 3
    integ = dense ** 3 * (p.alpha * v + p.beta * dense * vr)
    T = np.concatenate([[0.0],
                        np.cumsum(0.5 * (integ[1:] + integ[:-1]) * np.diff(dense))])
    head = p.alpha * prof.v[0] * dense[0] ** 4 / 4.0
    assert np.max(np.abs(-(head + T) - P)) <= 1e-7 * np.max(np.abs(P))


def test_value_floor_carries_partial_profile():
    p = derive_params(4, 1 / 3, 1.0, -0.2)
    with pytest.raises(ContinuationFailed) as exc:
        solve_origin_profile(p, 1.0, 100.0, tol=1e-9)
    e = exc.value
    assert e.terminal is TerminalEvent.VALUE_FLOOR
    assert isinstance(e.partial, Profile)
    assert e.partial.r[-1] == pytest.approx(15.678, rel=1e-3)
    assert e.partial.v[-1] <= 1.01e-30
    assert np.all(np.diff(e.partial.r) > 0.0)
    assert "ValueFloor" in str(e)


@pytest.fixture(scope="module")
def touched():
    p = derive_params(4, 0.25, 1.0, 0.2)
    with pytest.raises(ContinuationFailed) as exc:
        solve_farfield_profile(p, 1.0, 50.0, tol=1e-9)
    return p, exc.value.partial


class TestExtinction:
    """Far-field touchdown for (n, m, beta) = (4, 1/4, 1/5).

    Here the profile meets zero at a finite radius s0 with a degenerate
    contact g ~ c (s0 - s)^{1/m} but a nonzero limiting flux.
    """

    def test_touchdown_radius(self, touched):
        p, part = touched
        assert part.terminal is TerminalEvent.VALUE_FLOOR
        assert part.r[-1] == pytest.approx(4.35339, rel=1e-4)

    def test_limiting_flux_identity(self, touched):
        # P(s0) = (beta_tilde (n + sigma - 2) - alpha_tilde) int_0^s0 s^w g
        p, part = touched
        q = p.n + p.sigma - 3.0
        dense = _hermite_refine(part.r)
        g = hermite_many(part.r, part.v, part.vr, dense)
        I = np.trapezoid(dense ** q * g, dense)
        I += part.v[0] * dense[0] ** (q + 1.0) / (q + 1.0)
        c = p.beta_tilde * (p.n + p.sigma - 2.0) - p.alpha_tilde
        assert abs(part.flux[-1] - c * I) <= 1e-6 * abs(c * I)

    def test_contact_exponent(self, touched):
        p, part = touched
        s0 = part.r[-1]
        mask = (part.v > 1e-16) & (part.v < 1e-8)
        slope = np.polyfit(np.log(s0 - part.r[mask]),
                           np.log(part.v[mask]), 1)[0]
        assert slope == pytest.approx(1.0 / p.m, rel=5e-2)

    def test_touchdown_scaling_in_eta(self, touched):
        # g_lam(s) = lam^{sigma/(1-m)} g(lam s) maps solutions to solutions,
        # so s0(eta) = s0(1) * eta^{-(1-m)/sigma}
        p, part = touched
        s0 = part.r[-1]
        for eta in (0.25, 4.0):
            with pytest.raises(ContinuationFailed) as exc:
                solve_farfield_profile(p, eta, 50.0, tol=1e-9)
            pred = s0 * eta ** (-(1.0 - p.m) / p.sigma)
            assert exc.value.partial.r[-1] == pytest.approx(pred, rel=1e-6)
