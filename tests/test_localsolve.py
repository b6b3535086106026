"""The invariant-manifold series near the profile's boundary point."""
import dataclasses
import re

import mpmath
import numpy as np
import pytest

from conftest import (RMAX, SWEEP_TUPLES, advance_g, f_exact, fr_exact, g_exact,
                      gr_exact, manifold_series)
from fdprof import (DomainError, OdeState, ProfileKind, classify_regime,
                    derive_params, ode_residual, picard_f_origin,
                    picard_g_origin, singular_slope_limit,
                    solve_farfield_profile, solve_origin_profile)
from fdprof import integrate, localsolve
from fdprof.cli import main
from fdprof.profile import Chart, hermite

CF = derive_params(4, 1 / 3, 1.0, 0.0)


def test_f_closed_form():
    sol = picard_f_origin(CF, 1.0)
    assert sol.kind is ProfileKind.ORIGIN
    assert np.max(np.abs(sol.value - f_exact(sol.grid))) <= 1e-13
    assert np.max(np.abs(sol.deriv - fr_exact(sol.grid))) <= 1e-13


def test_f_curvature_at_origin():
    # f_r / r -> f_rr(0) = -3/8 for the closed form
    sol = picard_f_origin(CF, 1.0)
    i = np.searchsorted(sol.grid, 1e-3)
    assert sol.deriv[i] / sol.grid[i] == pytest.approx(-0.375, rel=1e-5)


def test_f_boundary_behaviour():
    # the datum f(0) = 1, f_r(0) = 0 through the closed form at the first node
    sol = picard_f_origin(CF, 1.0)
    r0 = sol.grid[0]
    assert 0.0 < r0 <= 1e-3
    assert np.all(np.diff(sol.grid) > 0.0)
    assert sol.value[0] == pytest.approx(float(f_exact(r0)), rel=1e-15, abs=0.0)
    assert sol.deriv[0] == pytest.approx(float(fr_exact(r0)), rel=1e-13, abs=0.0)
    assert abs(sol.value[0] - 1.0) <= 0.1875 * r0 ** 2
    assert sol.boundary_value == 1.0


def test_f_stays_in_ball():
    sol = picard_f_origin(CF, 1.0)
    assert np.max(np.abs(sol.value - 1.0)) <= 0.5
    assert np.max(np.abs(sol.deriv)) <= 0.5
    assert np.min(sol.value) > 0.0


def test_f_diagnostics():
    """iterations is the order the series settles at, and it grows as tol
    shrinks.  The closed form's series converges for theta < 16, so its seam
    sits at the cap theta = 1, where each term is its coefficient: the last
    two it sums lie below tol/100 of 1 + |u| and of Y/theta."""
    u, y = manifold_series(CF, ProfileKind.ORIGIN)
    orders = []
    for tol in (1e-6, 1e-9, 1e-12):
        sol = picard_f_origin(CF, 1.0, tol)
        N = sol.iterations
        assert sol.eps == 1.0
        assert np.max(np.abs(u[N - 1:N + 1])) <= tol / 100 * (1.0 + abs(u[:N + 1].sum()))
        assert np.max(np.abs(y[N - 1:N + 1])) <= tol / 100 * y[1:N + 1].sum()
        seam = localsolve.series_seam(Chart.of(CF, ProfileKind.ORIGIN), 1.0, 1.0,
                                      0.25, tol)
        assert N == len(seam.zu) - 1
        orders.append(N)
    assert orders == sorted(set(orders)) and orders[-1] < localsolve.ORDER
    sol = picard_f_origin(CF, 1.0)
    assert sol.eps == sol.grid[-1] <= 1.0
    gaps = np.diff(np.log(sol.grid))
    # the log-radius gaps shrink toward the seam
    assert np.all(gaps > 0.0)
    assert np.all(np.diff(gaps) <= 1e-12)
    assert gaps[0] > 10.0 * gaps[-1]
    assert np.all(sol.deriv < 0.0)


def _series_at(p, kind, b, x):
    """The manifold series evaluated directly (Horner in theta) at radii x."""
    u, y = manifold_series(p, kind)
    e = 2.0 if kind is ProfileKind.ORIGIN else p.sigma
    theta = b ** (1.0 - p.m) * x ** e
    return b * np.polynomial.polynomial.polyval(theta, y[1:]) ** (1.0 / (1.0 - p.m))


@pytest.mark.parametrize("tol", [1e-9, 1e-11])
@pytest.mark.parametrize("n, m, beta, eta0, eta", [
    (4, 1 / 3, 0.0, 1.0, 4096.0),   # closed form
    (3, 0.28, 0.3, 3.0, 3.0),       # singular g-origin
    (3, 0.323, 0.0, 1.0, 1.0),      # small sigma, thousands of far-field nodes
])
def test_hermite_between_nodes_honours_tol(n, m, beta, eta0, eta, tol):
    """Cubic Hermite of ln v in ln x through the stored nodes, as the dense
    output reads them, stays within tol/10 of the series at every midpoint."""
    p = derive_params(n, m, 1.0, beta)
    for solve, kind, b in ((picard_f_origin, ProfileKind.ORIGIN, eta0),
                           (picard_g_origin, ProfileKind.FARFIELD, eta)):
        sol = solve(p, b, tol)
        t = np.log(sol.grid)
        dense = np.exp(hermite(t, np.log(sol.value),
                               sol.grid * sol.deriv / sol.value,
                               0.5 * (t[1:] + t[:-1]))[0])
        x = np.exp(0.5 * (t[1:] + t[:-1]))
        assert np.max(np.abs(dense / _series_at(p, kind, b, x) - 1.0)) <= tol / 10


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11])
@pytest.mark.parametrize("n, m, beta, b", [
    (4, 1 / 3, 0.0, 1.0), (3, 0.28, 0.3, 3.0), (3, 0.323, 0.0, 1.0),
    (5, 0.45, 0.27, 0.5), (8, 0.05, 0.0, 1.0)])
def test_node_depth_is_independent_of_tol(n, m, beta, b, tol):
    """The deepest node sits at theta_seam * 1e-7 at the origin and at
    theta_seam * min(5e-5, 4e-3^sigma) in the far field, whatever the tol."""
    p = derive_params(n, m, 1.0, beta)
    f = picard_f_origin(p, b, tol)
    assert f.grid[0] == pytest.approx(f.eps * 1e-7 ** 0.5, rel=1e-12)
    g = picard_g_origin(p, b, tol)
    depth = min(5e-5, 4e-3 ** p.sigma) ** (1.0 / p.sigma)
    assert g.grid[0] == pytest.approx(g.eps * depth, rel=1e-12)
    assert g.grid[0] <= g.eps * 4e-3 * (1.0 + 1e-12)


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
@pytest.mark.parametrize("solve, n, m, beta", [
    (solve_origin_profile, 6, 0.2, 0.05),      # flux ~ r^6 (1 + c r^2 + ...)
    (solve_farfield_profile, 3, 0.28, 0.3),    # flux ~ s^{1.57}, not polynomial
])
def test_series_nodes_pass_the_residual_check(solve, n, m, beta, tol):
    """A solve cut at r_max = 0.25, below the seam, is the series alone;
    the residual's 7-node stencil on its nodes stays inside the 100 tol bar."""
    prof = solve(derive_params(n, m, 1.0, beta), 1.0, 0.25, tol=tol)
    assert prof.r[-1] == prof.eps == 0.25 and prof.n_local == len(prof.r) - 1
    assert ode_residual(prof) <= 10.0 * tol


def test_f_order_refinement_consistency():
    """Orders past the rule's move node values by rounding only.

    At the closed form's seam, theta = 1, the terms fall like 16^-j: the
    ORDER-term series, summed by Horner at the solve's own nodes, differs
    from the solve's values and slopes by rounding.
    """
    sol = picard_f_origin(CF, 1.0)
    assert sol.iterations < localsolve.ORDER
    u, y = manifold_series(CF, ProfileKind.ORIGIN)
    theta = sol.grid ** 2
    value = np.polynomial.polynomial.polyval(theta, y[1:]) ** 1.5
    deriv = np.polynomial.polynomial.polyval(theta, u) * value / sol.grid
    assert np.max(np.abs(sol.value - value)) <= 1e-15
    assert np.max(np.abs(sol.deriv - deriv)) <= 1e-15


# the admissible grid: m over (0.05..0.95)(n-2)/n, beta from -0.4 up to
# 0.9 min(beta_threshold, 0.5)
ADMISSIBLE = [(n, float(m), float(beta))
              for n in range(3, 9)
              for m in np.linspace(0.05, 0.95, 11) * (n - 2) / n
              for beta in np.linspace(-0.4, 0.9 * min(
                  derive_params(n, m, 1.0, 0.0).beta_threshold, 0.5), 10)]


class _Recorded(Exception):
    """Ends a solve once its seam is recorded: its nodes are not needed."""


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11])
def test_series_order_sums_below_tol(monkeypatch, tol):
    """A solve's seam and a gap's each sum the order the series settles at; the
    60-term series' terms past that order sum below tol/10 at the seam, in u
    and in Y/theta relative, in both charts over the admissible grid."""
    seams = []
    series_seam = localsolve.series_seam

    def recorded(stop):
        def seam_of(chart, b, *rest):
            seam = series_seam(chart, b, *rest)
            seams.append((chart.params, chart.kind, b, seam))
            if stop:
                raise _Recorded
            return seam
        return seam_of

    monkeypatch.setattr(integrate, "series_seam", recorded(False))
    monkeypatch.setattr(localsolve, "series_seam", recorded(True))
    for n, m, beta in ADMISSIBLE + [(3, 0.323, 0.0)]:
        p = derive_params(n, m, 1.0, beta)
        for kind, local in ((ProfileKind.ORIGIN, picard_f_origin),
                            (ProfileKind.FARFIELD, picard_g_origin)):
            integrate.section_Y(p, kind, 1.0, tol)
            with pytest.raises(_Recorded):
                local(p, 1.0, tol)
    assert len(seams) == 4 * (len(ADMISSIBLE) + 1)
    worst = 0.0
    for p, kind, b, seam in seams:
        order = len(seam.zu) - 1
        assert order < 60
        u, y = manifold_series(p, kind)
        e = abs(Chart.of(p, kind).lam)
        ln_theta = (1.0 - p.m) * np.log(b) + e * np.log(seam.eps)
        j = np.arange(order + 1, 61)
        with np.errstate(divide="ignore"):   # a zero coefficient
            tail_u = np.exp(np.log(np.abs(u[j])) + j * ln_theta).sum()
            tail_y = np.exp(np.log(np.abs(y[j])) + (j - 1) * ln_theta).sum()
        worst = max(worst, tail_u, tail_y / seam.zy.sum())
    assert worst < tol / 10


def test_the_ceiling_pulls_the_seam_in(monkeypatch):
    """Where the last terms have not settled at the ceiling ORDER, the seam
    moves in until they do, and the solve goes on from there."""
    p = derive_params(3, 0.323, 1.0, 0.0)
    chart = Chart.of(p, ProfileKind.FARFIELD)
    free = localsolve.series_seam(chart, 1.0, 1.0, 0.25, 1e-11)
    monkeypatch.setattr(localsolve, "ORDER", 8)
    seam = localsolve.series_seam(chart, 1.0, 1.0, 0.25, 1e-11)
    assert len(seam.zu) == 9 and seam.eps < free.eps
    assert np.max(np.abs(seam.zu[-2:])) <= 1e-13 * (1.0 + abs(seam.u))
    assert np.max(np.abs(seam.zy[-2:])) <= 1e-13 * seam.zy.sum()
    assert picard_g_origin(p, 1.0, 1e-11).eps == seam.eps


def test_a_gap_builds_each_chart_once(monkeypatch):
    """section_Y builds its chart once and passes it to every stage it
    calls: the datum check, the manifold series and its seam."""
    calls = []
    of = Chart.of

    def counted(p, kind):
        calls.append(kind)
        return of(p, kind)

    monkeypatch.setattr(Chart, "of", staticmethod(counted))
    p = derive_params(5, 0.45, 1.0, 0.1)
    for kind in ProfileKind:
        calls.clear()
        y, why = integrate.section_Y(p, kind, 1.0, 1e-9)
        assert y is not None, why
        assert calls == [kind]


def test_g_closed_form():
    sol = picard_g_origin(CF, 4096.0)
    assert sol.kind is ProfileKind.FARFIELD
    s = sol.grid
    assert np.max(np.abs(sol.value / g_exact(s) - 1.0)) <= 1e-13
    assert np.max(np.abs(sol.deriv / gr_exact(s) - 1.0)) <= 1e-13
    assert sol.value[0] == pytest.approx(float(g_exact(s[0])), rel=1e-15, abs=0.0)
    assert 1.0 / s[0] >= 50.0
    assert np.all(sol.deriv < 0.0)


def test_g_singular_kind_and_slope():
    """In the singular regime g_r blows up like r^{-delta1} with a known
    leading coefficient; a two-node power-law extrapolation recovers it."""
    p = derive_params(3, 0.3, 1.0, 0.0)
    sol = picard_g_origin(p, 1.0)
    assert sol.kind is ProfileKind.FARFIELD
    assert classify_regime(p).singular_g_origin
    c_true = singular_slope_limit(p, 1.0)
    assert c_true == pytest.approx(-15.0 / 14.0, rel=1e-12)
    r, y = sol.grid, sol.grid ** p.delta1 * sol.deriv
    q = 1.0 - p.delta1
    i, j = np.searchsorted(r, 1e-12), np.searchsorted(r, 2e-12)
    c = (y[i] * r[j] ** q - y[j] * r[i] ** q) / (r[j] ** q - r[i] ** q)
    assert c == pytest.approx(-15.0 / 14.0, rel=1e-6)
    # the raw scaled derivative converges too, at the rate r^q
    assert y[i] == pytest.approx(-15.0 / 14.0, rel=1e-3)


def test_g_regular_slope_vanishes():
    # away from the singular regime g_r(0) = 0: g_r / s -> g_rr(0) = -6 * 16^4
    sol = picard_g_origin(CF, 4096.0)
    assert sol.deriv[0] / sol.grid[0] == pytest.approx(-6.0 * 16.0 ** 4, rel=1e-5)


@pytest.mark.parametrize("m", [0.399, 0.401])
def test_g_converges_across_regime_boundary(m):
    # n = 4 flips singular_g_origin at m = 0.4; on both sides the stepper,
    # started from the deepest series node, lands on the series at the seam
    p = derive_params(4, m, 1.0, 0.0)
    assert classify_regime(p).singular_g_origin is (m > 0.4)
    sol = picard_g_origin(p, 1.0)
    s0, g0, gr0 = sol.grid[0], sol.value[0], sol.deriv[0]
    P0 = s0 ** (p.n - 1) * g0 ** (p.m - 1.0) * gr0
    tr = advance_g(p, OdeState(s0, g0, P0), sol.eps, tol=1e-12)
    assert tr.r[-1] == pytest.approx(sol.eps, rel=1e-14)
    assert tr.v[-1] == pytest.approx(sol.value[-1], rel=1e-10)
    assert tr.vr[-1] == pytest.approx(sol.deriv[-1], rel=1e-10)


@pytest.mark.parametrize("n", range(3, 9))
def test_critical_bubble_family(n):
    """At m = (n-2)/(n+2), beta = 0 the origin profile is the bubble
    f = eta0 (1 + eta0^{1-m} r^2 / A)^{-(n-2)/(2m)}, A = n(n-2)(1-m)/(m rho1),
    and its g-image is g(s) = eta0 A^{k/2} (A s^2 + eta0^{1-m})^{-k/2}."""
    m = (n - 2) / (n + 2)
    p = derive_params(n, m, 1.0, 0.0)
    A = n * (n - 2) * (1 - m) / (m * p.rho1)
    half_k = (n - 2) / (2 * m)
    eta0 = 1.7
    sol = picard_f_origin(p, eta0)
    r = sol.grid
    core = 1.0 + eta0 ** (1 - m) * r ** 2 / A
    f = eta0 * core ** -half_k
    fr = -half_k * eta0 * core ** (-half_k - 1) * 2 * eta0 ** (1 - m) * r / A
    assert np.max(np.abs(sol.value / f - 1.0)) <= 1e-13
    assert np.max(np.abs(sol.deriv / fr - 1.0)) <= 1e-13

    eta = eta0 * (A / eta0 ** (1 - m)) ** half_k
    sol = picard_g_origin(p, eta)
    s = sol.grid
    core = A * s ** 2 + eta0 ** (1 - m)
    g = eta0 * A ** half_k * core ** -half_k
    gr = -half_k * eta0 * A ** half_k * core ** (-half_k - 1) * 2 * A * s
    assert np.max(np.abs(sol.value / g - 1.0)) <= 1e-13
    assert np.max(np.abs(sol.deriv / gr - 1.0)) <= 1e-13


def _mp_series(p, kind, order):
    """The manifold recursion in the chart's own reduced variables.

    Origin: X, Y with theta = eta0^{1-m} r^2.  Far field: xi = X + k, Y with
    theta = eta^{1-m} s^sigma.  Returns (x_j, y_j) as mpf lists.
    """
    m, be = mpmath.mpf(p.m), mpmath.mpf(p.beta)
    x = [mpmath.mpf(0)] * (order + 1)
    y = [mpmath.mpf(0)] * (order + 1)
    y[1] = mpmath.mpf(1)
    for j in range(1, order + 1):
        xy = mpmath.fsum(x[i] * y[j - i] for i in range(1, j))
        xx = mpmath.fsum(x[i] * x[j - i] for i in range(1, j))
        if kind is ProfileKind.ORIGIN:
            if j > 1:
                y[j] = (1 - m) * xy / (2 * j - 2)
            x[j] = (-m * xx - be * xy - mpmath.mpf(p.alpha) * y[j]) / (2 * j + p.n - 2)
        else:
            sig = mpmath.mpf(p.sigma)
            if j > 1:
                y[j] = -(1 - m) * xy / (sig * (j - 1))
            x[j] = (mpmath.mpf(p.alpha_tilde) * y[j] + m * xx + be * xy) / (
                p.n - 2 + sig * j)
    return x, y


MP_CASES = [
    (ProfileKind.ORIGIN, 4, 1 / 3, 0.25, 1.0),
    (ProfileKind.ORIGIN, 3, 0.2, 0.1, 0.6),
    (ProfileKind.ORIGIN, 4, 0.3, -0.1, 2.0),
    (ProfileKind.FARFIELD, 3, 0.3, 0.0, 1.0),
    (ProfileKind.FARFIELD, 3, 0.2, 0.05, 0.7),
    (ProfileKind.FARFIELD, 5, 0.45, 0.1, 2.0),
]


@pytest.mark.parametrize("kind, n, m, beta, b", MP_CASES)
def test_recursion_against_mpmath(kind, n, m, beta, b):
    """Double-precision coefficients and node values against 30 digits."""
    p = derive_params(n, m, 1.0, beta)
    order = localsolve.ORDER
    with mpmath.workdps(30):
        xs, ys = _mp_series(p, kind, order)
        u, y = manifold_series(p, kind)
        # compare coefficients on the scale of the series at the seam
        sol = (picard_f_origin if kind is ProfileKind.ORIGIN else picard_g_origin)(p, b)
        e = 2.0 if kind is ProfileKind.ORIGIN else p.sigma
        th_seam = b ** (1 - m) * sol.eps ** e
        for j in range(1, order + 1):
            scale = th_seam ** j
            assert abs(u[j] - float(xs[j])) * scale <= 1e-15
            assert abs(y[j] - float(ys[j])) * scale / th_seam <= 1e-15
        one_m = 1 - mpmath.mpf(m)
        sign = 1 if kind is ProfileKind.ORIGIN else -1
        worst = 0.0
        for x, v, vx in zip(sol.grid, sol.value, sol.deriv):
            x = mpmath.mpf(x)
            th = mpmath.mpf(b) ** one_m * x ** mpmath.mpf(e)
            ratio = mpmath.polyval(ys[:0:-1], th)
            val = b * ratio ** (1 / one_m)
            der = sign * mpmath.polyval(xs[::-1], th) * val / x
            worst = max(worst, float(abs(v / val - 1)), float(abs(vx / der - 1)))
        assert worst <= 1e-13


@pytest.mark.parametrize("tol", [1e-9, 1e-11])
@pytest.mark.parametrize("kind, n, m, beta, b", MP_CASES)
def test_gap_seam_against_mpmath(kind, n, m, beta, b, tol):
    """A gap's seam state (u, Z = ln Y), summed in doubles from the last
    term down, against a 30-digit sum of the same number of terms at the
    same eps: within 2 ulps of the scale of its rounded pieces (summed in
    index order, they read up to 3.5 ulps)."""
    p = derive_params(n, m, 1.0, beta)
    chart = Chart.of(p, kind)
    reach = integrate.SECTION_REACH * chart.datum_length(b)
    seam = localsolve.series_seam(chart, b, reach, localsolve.GAP_SEAM, tol)
    order = len(seam.zu) - 1
    with mpmath.workdps(30):
        xs, ys = _mp_series(p, kind, order)
        e = abs(mpmath.mpf(Chart.of(p, kind).lam))
        th = mpmath.mpf(b) ** (1 - mpmath.mpf(m)) * mpmath.mpf(seam.eps) ** e
        u = mpmath.polyval(xs[::-1], th)
        Y_th = mpmath.polyval(ys[:0:-1], th)
        Z = mpmath.log(th * Y_th)
        # the scales of the rounded pieces: the terms of u, the logs of Z
        u_scale = float(mpmath.fsum(abs(x) * th ** j for j, x in enumerate(xs)))
        Z_scale = float(abs((1 - m) * mpmath.log(b)) + abs(e * mpmath.log(seam.eps))
                        + abs(mpmath.log(Y_th)))
    assert abs(seam.u - float(u)) <= 2 * np.spacing(u_scale)
    assert abs(seam.Z - float(Z)) <= 2 * np.spacing(Z_scale)


def _chart_with(monkeypatch, **change):
    """Change the given fields of every chart Chart.of builds."""
    of = Chart.of
    monkeypatch.setattr(localsolve.Chart, "of", staticmethod(
        lambda p, kind: dataclasses.replace(of(p, kind), **change)))


@pytest.mark.parametrize("change, b, why", [
    # u_2 carries m u_1^2 ~ 1e600
    ({"A": 1e300}, 1.0, "origin series coefficients overflow at sigma=2"),
    # with A = 0 the series is u = 0, Y = theta: no tail, so a gap's seam sits
    # at its reach, where theta = 4096^|lam| = 2^48 and theta^22 overflows (a
    # solve's seam, at theta <= 1, cannot reach this branch)
    ({"A": 0.0, "lam": 4.0}, 1e300,
     "origin series terms overflow at the seam (sigma=2)"),
])
def test_series_overflow_is_a_local_stage_failure(monkeypatch, capsys, tmp_path,
                                                  change, b, why):
    """Both overflows of series_seam raise LocalStageFailed in a beta* gap,
    never a float's OverflowError, and beta-find exits 3 on them."""
    _chart_with(monkeypatch, **change)
    with pytest.raises(localsolve.LocalStageFailed, match=re.escape(why)):
        integrate.section_Y(CF, ProfileKind.ORIGIN, b, 1e-9)
    code = main(["beta-find", "--n", "4", "--m", "0.3333333333333333",
                 "--eta0", repr(b), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert why in err and "OverflowError" not in err


@pytest.mark.parametrize("kind", [ProfileKind.ORIGIN, ProfileKind.FARFIELD])
@pytest.mark.parametrize("b", [1e-3, 1.0, 1e3])
def test_solve_seam_lies_where_theta_is_at_most_one(kind, b):
    """A solve's seam is capped at the datum's length, where theta = 1, or
    at r_max, on the standard tuples in both charts."""
    local = picard_f_origin if kind is ProfileKind.ORIGIN else picard_g_origin
    for n, m, beta in SWEEP_TUPLES:
        p = derive_params(n, m, 1.0, beta)
        eps = local(p, b, 1e-9, RMAX).eps
        theta = b ** (1.0 - m) * eps ** abs(Chart.of(p, kind).lam)
        assert theta <= 1.0 + 1e-12 or eps == RMAX, (n, m, beta)


def test_f_rejects_nonpositive_eta():
    p = derive_params(4, 1 / 3, 1.0, 0.0)
    with pytest.raises(DomainError, match="eta0=0.0 violates 0 < eta0 < inf"):
        picard_f_origin(p, 0.0)
    with pytest.raises(DomainError, match="eta0=-1.0 violates 0 < eta0 < inf"):
        picard_f_origin(p, -1.0)


def test_f_rejects_beta_at_threshold():
    p = derive_params(4, 1 / 3, 1.0, 0.5)
    with pytest.raises(DomainError, match="origin-problem window"):
        picard_f_origin(p, 1.0)


def test_g_rejects_bad_inputs():
    p = derive_params(4, 1 / 3, 1.0, 0.0)
    with pytest.raises(DomainError, match="eta=0.0 violates 0 < eta < inf"):
        picard_g_origin(p, 0.0)
    bad = derive_params(4, 1 / 3, 1.0, 0.7)   # alpha_tilde < 0
    with pytest.raises(DomainError, match="far-field threshold"):
        picard_g_origin(bad, 1.0)
