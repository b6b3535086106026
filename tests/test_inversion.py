"""Kelvin-type transform: algebra, involution, and sample transport."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import f_exact, fr_exact, g_exact, gr_exact, stencil_slope
from fdprof import (DomainError, ProfileKind, derive_params, fside_nodes,
                    fside_samples, invert_pointwise, roundtrip,
                    solve_farfield_profile, solve_origin_profile)

CF = derive_params(4, 1 / 3, 1.0, 0.0)


def test_constant_g_maps_to_pure_power():
    s = np.geomspace(0.1, 10.0, 50)
    r, f, fr = invert_pointwise(s, np.ones_like(s), np.zeros_like(s), CF)
    assert np.allclose(f, r ** -6.0, rtol=1e-13)
    assert np.allclose(fr, -6.0 * r ** -7.0, rtol=1e-13)


def test_unit_radius_is_fixed():
    r, f, _ = invert_pointwise([1.0], [5.0], [-0.3], CF)
    assert r[0] == 1.0
    assert f[0] == 5.0


def test_closed_form_pair_is_a_transform_pair():
    s = np.geomspace(0.05, 20.0, 400)
    r, f, fr = invert_pointwise(s, g_exact(s), gr_exact(s), CF)
    assert np.all(np.diff(r) > 0.0)
    assert np.max(np.abs(f - f_exact(r)) / f_exact(r)) <= 1e-12
    # the derivative map subtracts k*g from s*g_r, so it carries one extra
    # rounding amplification
    assert np.max(np.abs(fr - fr_exact(r)) / np.abs(fr_exact(r))) <= 1e-11


def test_roundtrip_single_node():
    p = derive_params(3, 0.25, 1.0, 0.0)
    r, v, d = roundtrip([2.0], [5.0], [-0.7], p)
    assert r[0] == pytest.approx(2.0, rel=1e-12)
    assert v[0] == pytest.approx(5.0, rel=1e-12)
    assert d[0] == pytest.approx(-0.7, rel=1e-12)


_SAMPLE = st.tuples(st.floats(-1.0, 1.0), st.floats(-300.0, 300.0),
                    st.floats(-3.0, 3.0), st.sampled_from([-1.0, 0.0, 1.0]))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(3, 8), frac=st.floats(0.02, 0.98),
       samples=st.lists(_SAMPLE, min_size=1, max_size=20,
                        unique_by=lambda x: x[0]))
def test_roundtrip_is_an_involution(n, frac, samples):
    """For every admissible (n, m) and any sample set of distinct positive
    radii whose images are finite doubles, the transform applied twice returns radii and values
    to 1e-12 and the derivative to 1e-12 of its conditioning scale
    |d| + k v / r, the size of the terms the derivative map subtracts.

    ln r spans +-min(5, 300/k), so r^{+-k} and v stay inside e^{+-600}."""
    p = derive_params(n, frac * (n - 2) / n, 1.0, 0.0)
    lr, lv, ld, sign = (np.array(c) for c in zip(*sorted(samples)))
    r, v = np.exp(lr * min(5.0, 300.0 / p.k)), np.exp(lv)
    assume(np.all(np.diff(r) > 0.0))   # the output is sorted by radius
    d = sign * p.k * v / r * np.exp(ld)
    r2, v2, d2 = roundtrip(r, v, d, p)
    assert np.all(np.abs(r2 / r - 1.0) <= 1e-12)
    assert np.all(np.abs(v2 / v - 1.0) <= 1e-12)
    assert np.all(np.abs(d2 - d) <= 1e-12 * (np.abs(d) + p.k * v / r))


def test_roundtrip_returns_input_over_random_samples():
    from conftest import SWEEP
    pairs = sorted(SWEEP)
    rng = np.random.default_rng(20240822)
    for seed in range(100):
        n, m = pairs[seed % len(pairs)]
        p = derive_params(n, m, 1.0, 0.0)
        r = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=1000)))
        v = np.exp(rng.uniform(-2.0, 2.0, size=1000))
        # derivative magnitudes at the transform's own scale k v / r, with
        # free signs; wilder ratios only probe cancellation, not the algebra
        d = (p.k * v / r) * np.exp(rng.uniform(-2.0, 1.0, size=1000))
        d *= rng.choice([-1.0, 1.0], size=1000)
        r2, v2, d2 = roundtrip(r, v, d, p)
        assert np.max(np.abs(r2 - r) / r) <= 1e-12
        assert np.max(np.abs(v2 - v) / v) <= 1e-12
        assert np.max(np.abs(d2 - d) / np.abs(d)) <= 1e-12


def test_invert_rejects_bad_samples():
    with pytest.raises(DomainError, match="empty"):
        invert_pointwise([], [], [], CF)
    with pytest.raises(DomainError, match="r > 0"):
        invert_pointwise([1.0, -2.0], [1.0, 1.0], [0.0, 0.0], CF)


def test_invert_rejects_an_overflowing_image():
    # k = 186: r^{-k} at r = e^{-4} is e^{744}, past the largest double
    p = derive_params(4, 0.0107421875, 1.0, 0.0)
    with pytest.raises(DomainError, match="not finite"):
        invert_pointwise([np.exp(4.0)], [1.0], [-1.0], p)


def test_transported_samples_satisfy_the_direct_equation():
    """Mapping exact far-field samples must land on the direct equation's
    solution manifold: flux built from the mapped pair differentiates to
    the mapped source term."""
    s = np.geomspace(0.02, 50.0, 3000)
    r, f, fr = invert_pointwise(s, g_exact(s), gr_exact(s), CF)
    P = r ** 3 * f ** (CF.m - 1.0) * fr
    rhs = -(r ** 3) * (CF.alpha * f + CF.beta * r * fr)
    inner, dP = stencil_slope(r, P)
    defect = np.abs(dP - rhs[inner]) / (np.abs(rhs[inner]) + 1.0)
    assert np.max(defect) <= 1e-8


def test_fside_nodes_identity_on_origin_profiles():
    prof = solve_origin_profile(CF, 1.0, 20.0, tol=1e-8)
    r, f, fr = fside_nodes(prof)
    assert np.array_equal(r, prof.r)
    assert np.array_equal(f, prof.v)
    assert np.array_equal(fr, prof.vr)


def test_fside_nodes_involution_on_farfield_profiles():
    # eta = 1 at this beta touches down near s = 13, so stop short of it
    p = derive_params(4, 1 / 3, 1.0, 0.25)
    prof = solve_farfield_profile(p, 1.0, 8.0, tol=1e-8)
    assert prof.kind is ProfileKind.FARFIELD
    r, f, fr = fside_nodes(prof)
    assert np.all(np.diff(r) > 0.0)
    s2, g2, gr2 = invert_pointwise(r, f, fr, p)
    assert np.max(np.abs(s2 - prof.r) / prof.r) <= 1e-12
    assert np.max(np.abs(g2 - prof.v) / prof.v) <= 1e-12
    # near s = 0 the derivative is the small difference of k g / s terms,
    # so its error is measured against that conditioning scale
    cond = np.abs(prof.vr) + p.k * prof.v / prof.r
    assert np.max(np.abs(gr2 - prof.vr) / cond) <= 1e-12


def test_fside_samples_match_closed_form():
    prof = solve_farfield_profile(CF, 4096.0, 50.0, tol=1e-9)
    r = np.geomspace(0.1, 50.0, 500)
    f, fr = fside_samples(prof, r)
    assert np.max(np.abs(f - f_exact(r))) <= 1e-6
    assert np.max(np.abs(fr - fr_exact(r))) <= 1e-6
    with pytest.raises(DomainError, match="r > 0"):
        fside_samples(prof, [-1.0])
