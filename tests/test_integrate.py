"""Outward continuation: stepper accuracy, events, stitching, extinction."""
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import (RMAX, SWEEP_TUPLES, TOL, _flux, _gflux, f_exact,
                      farfield_eta, fr_exact, g_exact, rk4_oracle)
from fdprof import (ContinuationFailed, OdeState, Profile, ProfileKind,
                    TerminalEvent, advance_f, advance_g, continue_profile,
                    derive_params, kernels, picard_f_origin, picard_g_origin,
                    solve_farfield_profile, solve_origin_profile)
from fdprof.integrate import _hermite_peak
from fdprof.profile import Chart, hermite_many

CF = derive_params(4, 1 / 3, 1.0, 0.0)
CF_CHART = Chart.of(CF, ProfileKind.ORIGIN)


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


def test_advance_g_closed_form():
    st = OdeState(0.5, float(g_exact(0.5)), _gflux(CF, 0.5))
    tr = advance_g(CF, st, 5.0, tol=1e-9)
    assert tr.terminal is TerminalEvent.REACHED_RMAX
    assert np.max(np.abs(tr.v - g_exact(tr.r)) / g_exact(tr.r)) <= 1e-7


def test_zero_length_advance_is_identity():
    st = OdeState(0.5, float(f_exact(0.5)), _flux(CF, 0.5))
    tr = advance_f(CF, st, 0.5, tol=1e-9)
    assert tr.r.size == 1
    assert tr.v[0] == st.v
    assert tr.vr[0] == pytest.approx(float(fr_exact(0.5)), rel=1e-14)
    assert tr.terminal is TerminalEvent.REACHED_RMAX
    assert tr.r[-1] == st.r


def test_backward_target_rejected():
    st = OdeState(0.5, float(f_exact(0.5)), _flux(CF, 0.5))
    with pytest.raises(ValueError, match="below the start radius"):
        advance_f(CF, st, 0.25, tol=1e-9)


def test_zero_error_step_grows_at_cap():
    # A = beta = 0 and u0 = 0 keep u = 0 and Z_tau = |lam| exactly, so every
    # step's error estimate is exactly zero and the controller must not
    # divide by it
    x, u, Z, tag = kernels.integrate_flux_system(
        2.0, -1.0, 0.0, 1 / 3, 0.0, 0.5, 0.0, 0.0, 2.0, 1e-9)
    assert tag == kernels.TAG_RMAX
    assert x[-1] == 2.0
    assert np.all(u == 0.0)
    np.testing.assert_allclose(Z, 2.0 * np.log(x / 0.5), rtol=0.0, atol=1e-14)
    assert np.max(np.diff(np.log(x))) == pytest.approx(kernels.HMAX, rel=1e-12)


def test_against_fixed_step_rk4_f_side():
    st = OdeState(0.5, float(f_exact(0.5)), _flux(CF, 0.5))
    tr = advance_f(CF, st, 2.0, tol=1e-9)
    vs, Ps = rk4_oracle(CF, 3.0, CF.alpha, CF.beta, 0.5, st.v, st.flux,
                        tr.r[1:])
    assert np.max(np.abs(tr.v[1:] - vs)) <= 1e-8
    assert np.max(np.abs(CF_CHART.flux(tr.r, tr.v, tr.vr)[1:] - Ps)) <= 1e-7


def test_against_fixed_step_rk4_g_side():
    # nonzero beta exercises coefficients the closed form cannot reach
    p = derive_params(4, 0.25, 1.0, 0.2)
    w = p.n + p.sigma - 3.0
    tr = advance_g(p, OdeState(0.5, 1.0, -0.05), 2.0, tol=1e-9)
    vs, Ps = rk4_oracle(p, w, p.alpha_tilde, p.beta_tilde, 0.5, 1.0, -0.05,
                        tr.r[1:])
    assert np.max(np.abs(tr.v[1:] - vs)) <= 1e-8
    P = Chart.of(p, ProfileKind.FARFIELD).flux(tr.r, tr.v, tr.vr)
    assert np.max(np.abs(P[1:] - Ps)) <= 1e-7


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


def test_stitched_profile_shape():
    prof = solve_origin_profile(CF, 1.0, 50.0, tol=1e-9)
    assert prof.terminal is TerminalEvent.REACHED_RMAX
    assert prof.r_end == pytest.approx(50.0, rel=1e-14)
    assert np.all(np.diff(prof.r) > 0.0)
    assert 0 < prof.n_local < prof.r.size
    assert prof.r[prof.n_local - 1] < prof.eps <= prof.r[prof.n_local]
    # floor event never fired, so every node sits above the floor
    assert np.min(prof.v) > 1e-30


@pytest.mark.parametrize("local", [picard_f_origin, picard_g_origin],
                         ids=["origin", "farfield"])
@pytest.mark.parametrize("n, m, beta", SWEEP_TUPLES)
def test_seam_node_is_the_series_state(local, n, m, beta):
    """The stepper starts from the series' last node as it is: the node at
    n_local is that node bit for bit, ended run or not."""
    p = derive_params(n, m, 1.0, beta)
    loc = local(p, 1.0, TOL, RMAX)
    try:
        prof = continue_profile(p, loc, RMAX, tol=TOL)
    except ContinuationFailed as e:
        prof = e.partial
    i = prof.n_local
    assert prof.r[i] == loc.eps
    assert prof.v[i] == loc.value[-1]
    assert prof.vr[i] == loc.deriv[-1]


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
    # steps of 0.025 in ln r leave the trapezoid rule at 16 points per step
    # near 1e-7 on its own, so the quadrature takes 64
    dense = _hermite_refine(prof.r, K=64)
    v = prof.value_at(dense)
    chart = prof.chart
    P = hermite_many(prof.r, chart.flux(prof.r, prof.v, prof.vr),
                     chart.dflux(prof.r, prof.v, prof.vr), dense)
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
        P = part.chart.flux(part.r[-1], part.v[-1], part.vr[-1])
        assert abs(P - c * I) <= 1e-6 * abs(c * I)

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


def _touchdown(kind, n, m, beta, tol=1e-9, r_max=None):
    """The partial profile of a solve that touches down before r_max."""
    p = derive_params(n, m, 1.0, beta)
    solve = solve_origin_profile if kind == "o" else solve_farfield_profile
    with pytest.raises(ContinuationFailed) as exc:
        solve(p, 1.0, r_max or (100.0 if kind == "o" else 50.0), tol=tol)
    assert exc.value.terminal is TerminalEvent.VALUE_FLOOR
    return exc.value.partial


class TestPoleClosure:
    """A touchdown is closed in closed form once the Y terms are below tol."""

    CASES = [("o", 4, 0.35, 0.05),      # c + d u changes sign near X = -34
             ("o", 4, 1 / 3, -0.2),
             ("f", 4, 0.25, 0.2)]       # the far-field `touched` profile

    @pytest.mark.parametrize("kind, n, m, beta", CASES)
    def test_radius_converges_in_tol(self, kind, n, m, beta):
        coarse = _touchdown(kind, n, m, beta, tol=1e-9).r_end
        fine = _touchdown(kind, n, m, beta, tol=1e-12).r_end
        assert abs(coarse / fine - 1.0) <= 1e-9

    def test_closes_long_before_the_floor(self):
        # stepping to |X| = 1e9 took 877 nodes here
        part = _touchdown("o", 4, 0.35, 0.05)
        assert part.r.size - part.n_local <= 400

    @pytest.mark.parametrize("kind, n, m, beta", CASES)
    def test_rmax_either_side_of_the_touchdown(self, kind, n, m, beta):
        r_v = _touchdown(kind, n, m, beta).r_end
        p = derive_params(n, m, 1.0, beta)
        solve = solve_origin_profile if kind == "o" else solve_farfield_profile
        inside = solve(p, 1.0, r_v * (1.0 - 1e-6), tol=1e-9)
        assert inside.terminal is TerminalEvent.REACHED_RMAX
        assert inside.r_end == r_v * (1.0 - 1e-6)
        part = _touchdown(kind, n, m, beta, r_max=r_v * (1.0 + 1e-6))
        assert part.r_end == pytest.approx(r_v, rel=1e-12)

    def test_y_free_flow_lands_on_its_exact_floor(self):
        # A = beta = 0 leaves u_tau = u (mu - m u) alone (lam = 2, mu = -1,
        # m = 1/3, u* = -3), closed at the first accepted step: from u0 = -4,
        # v0 = 1 at tau = 0, v^m (u* - u) = 1 puts the floor at
        # u_f = -3 - 1e10 and 1/u = -1/3 + (1/12) e^tau at tau_f = ln(4 + 12/u_f)
        x, u, Z, tag = kernels.integrate_flux_system(
            2.0, -1.0, 0.0, 1 / 3, 0.0, 1.0, -4.0, 0.0, 10.0, 1e-12)
        u_f = -3.0 - 1e10
        assert tag == kernels.TAG_VALUE_FLOOR
        assert x.size == 3
        assert x[-1] == pytest.approx(4.0 + 12.0 / u_f, rel=1e-12)
        assert u[-1] == pytest.approx(u_f, rel=1e-9)
        lnv = (Z[-1] - 2.0 * np.log(x[-1])) / (1.0 - 1 / 3)
        assert lnv == pytest.approx(np.log(kernels.VALUE_FLOOR), rel=1e-14)

    def test_floor_past_x_max_keeps_stepping(self):
        x, u, Z, tag = kernels.integrate_flux_system(
            2.0, -1.0, 0.0, 1 / 3, 0.0, 1.0, -4.0, 0.0, 3.9, 1e-9)
        assert tag == kernels.TAG_RMAX
        assert x[-1] == 3.9
        # 1/u = -1/3 + x/12 along the exact orbit
        np.testing.assert_allclose(1.0 / u, -1 / 3 + x / 12.0, rtol=1e-7)


@pytest.mark.parametrize("tol", [1e-9, 1e-11])
@pytest.mark.parametrize("solve, n, m, beta", [
    (solve_origin_profile, 4, 1 / 3, 0.1),
    (solve_origin_profile, 5, 0.45, 0.27),
    (solve_farfield_profile, 3, 0.28, 1.3),
    (solve_farfield_profile, 5, 0.52, 1.12),
])
def test_stepper_nodes_honour_tol(solve, n, m, beta, tol):
    """The values at the stepper's nodes stay within 10 tol, relative, of a
    DOP853 solution of the flux form from the same seam state.

    Not the closed-form far-field profile: it is the orbit that ends at the
    regular origin, a saddle of the reduced system whose unstable direction
    in s grows any error like s^{n-2} (about 700 tol at s = 100, from either
    stepper)."""
    p = derive_params(n, m, 1.0, beta)
    boundary = 1.0 if solve is solve_origin_profile else farfield_eta(p, tol)
    prof = solve(p, boundary, 100.0, tol=tol)
    chart, i = prof.chart, prof.n_local
    x = prof.r[i:]

    def rhs(r, y):
        vr = y[0] ** (1.0 - p.m) * y[1] / r ** (p.n - 1)
        return [vr, -r ** chart.w * (chart.A * y[0] + chart.B * r * vr)]

    P = chart.flux(prof.r[i], prof.v[i], prof.vr[i])
    ref = solve_ivp(rhs, (x[0], x[-1]), [prof.v[i], P],
                    method="DOP853", rtol=1e-13, atol=1e-300, t_eval=x).y[0]
    assert x.size > 100
    assert np.max(np.abs(prof.v[i:] / ref - 1.0)) <= 10.0 * tol


@settings(max_examples=300, deadline=None)
@given(z0=st.floats(-1e3, 1e3), z1=st.floats(-1e3, 1e3),
       a0=st.floats(1e-8, 1e3), a1=st.floats(1e-8, 1e3), rising=st.booleans())
def test_hermite_peak_is_the_cubics_extremum(z0, z1, a0, a1, rising):
    """Cubic Hermite reproduces a cubic, so on any cubic whose end slopes
    differ in sign the helper gives the cubic's own extremum, to 1e-12 of
    the size of its data; the reference is worked at 50 digits."""
    d0, d1 = (a0, -a1) if rising else (-a0, a1)
    with mpmath.workdps(50):
        Z0, Z1, D0, D1 = (mpmath.mpf(t) for t in (z0, z1, d0, d1))
        c2, c3 = 3 * (Z1 - Z0) - 2 * D0 - D1, 2 * (Z0 - Z1) + D0 + D1
        if c3 == 0:
            roots = [-D0 / (2 * c2)]
        else:   # real roots: the slope d0 + 2 c2 s + 3 c3 s^2 changes sign
            w = mpmath.sqrt(c2 * c2 - 3 * c3 * D0)
            roots = [(-c2 + w) / (3 * c3), (-c2 - w) / (3 * c3)]
        s = next(t for t in roots if 0 <= t <= 1)
        ref = float(Z0 + s * (D0 + s * (c2 + s * c3)))
    scale = abs(z0) + abs(z1) + a0 + a1
    assert abs(_hermite_peak(z0, z1, d0, d1) - ref) <= 1e-12 * scale
