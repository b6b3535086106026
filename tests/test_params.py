"""Parameter derivation, regime flags, and their algebraic invariants."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdprof import (DomainError, classify_regime, derive_params,
                    require_farfield_admissible, require_origin_admissible)


def test_alpha_closed_form_case():
    p = derive_params(4, 1 / 3, 1.0, 0.0)
    assert p.alpha == pytest.approx(1.5, rel=1e-15)
    assert p.k == pytest.approx(6.0, rel=1e-15)


def test_beta_zero_collapses_tilde_pair():
    p = derive_params(4, 1 / 3, 1.0, 0.0)
    assert p.alpha_tilde == p.alpha
    assert p.beta_tilde == 0.0


def test_threshold_closed_form_case():
    p = derive_params(4, 1 / 3, 1.0, 0.0)
    assert p.beta_threshold == pytest.approx(0.5, rel=1e-12)


def test_delta_pair_exact_floats():
    # n=3, m=1/4: sigma = (1 - 3/4)/(1/4) = 1 exactly in binary arithmetic
    p = derive_params(3, 0.25, 1.0, 0.1)
    assert p.delta1 == 0.0
    assert p.delta0 == 0.5


def test_regime_flags_closed_form_case():
    flags = classify_regime(derive_params(4, 1 / 3, 1.0, 0.0))
    assert flags.origin_admissible
    assert flags.farfield_admissible
    assert not flags.singular_g_origin     # 1/3 < (n-2)/(n+1) = 0.4
    assert not flags.lemma_applicable      # beta_tilde = 0


def test_regime_flags_at_threshold_are_false():
    p = derive_params(4, 1 / 3, 1.0, 0.0)
    q = derive_params(4, 1 / 3, 1.0, p.beta_threshold)
    flags = classify_regime(q)
    assert not flags.origin_admissible
    assert not flags.farfield_admissible


def test_singular_g_origin_flag():
    assert classify_regime(derive_params(3, 0.3, 1.0, 0.0)).singular_g_origin
    assert classify_regime(derive_params(3, 0.2, 1.0, 0.0)).singular_g_origin is False
    # n=4 boundary at m = 0.4
    assert not classify_regime(derive_params(4, 0.35, 1.0, 0.0)).singular_g_origin
    assert classify_regime(derive_params(4, 0.42, 1.0, 0.0)).singular_g_origin


@pytest.mark.parametrize("n,m,rho1,fragment", [
    (2, 0.1, 1.0, "integer >= 3"),
    (3.5, 0.2, 1.0, "integer >= 3"),
    (3, 0.5, 1.0, "0 < m <"),
    (3, -0.1, 1.0, "0 < m <"),
    (3, 0.0, 1.0, "0 < m <"),
    (4, 1 / 3, 0.0, "0 < rho1 < inf"),
    (4, 1 / 3, -2.0, "0 < rho1 < inf"),
])
def test_domain_errors_name_the_inequality(n, m, rho1, fragment):
    with pytest.raises(DomainError) as exc:
        derive_params(n, m, rho1, 0.0)
    assert fragment in str(exc.value)


def test_origin_gate_names_the_window():
    with pytest.raises(DomainError) as exc:
        require_origin_admissible(derive_params(4, 1 / 3, 1.0, 0.6))
    assert "origin-problem window" in str(exc.value)
    with pytest.raises(DomainError):
        require_origin_admissible(derive_params(4, 1 / 3, 1.0, -0.5))


def test_farfield_gate():
    require_farfield_admissible(derive_params(4, 1 / 3, 1.0, -3.0))  # one-sided
    with pytest.raises(DomainError) as exc:
        require_farfield_admissible(derive_params(4, 1 / 3, 1.0, 0.7))
    assert "far-field threshold" in str(exc.value)
    # one ulp below the threshold alpha_tilde rounds to 0 for about a
    # quarter of sampled (n, m); this beta is one
    with pytest.raises(DomainError, match="alpha_tilde = 0 must be positive"):
        require_farfield_admissible(derive_params(8, 0.698131980601447, 1.0,
                                                  1.6824721396170255))


def _random_tuples(count, seed=20240817):
    rng = np.random.default_rng(seed)
    ns = rng.integers(3, 8, size=count)
    out = []
    for n in ns:
        m_hi = (n - 2) / n
        m = float(rng.uniform(0.02, m_hi * 0.999))
        rho1 = float(rng.uniform(0.05, 5.0))
        thr = m * rho1 / (n - 2 - n * m)
        beta = float(rng.uniform(-1.5 * rho1, 2.0 * thr))
        out.append((int(n), m, rho1, beta))
    return out


def test_alpha_rederivation_is_exact():
    for n, m, rho1, beta in _random_tuples(10_000):
        p = derive_params(n, m, rho1, beta)
        assert p.alpha * (1.0 - m) == pytest.approx(2.0 * beta + rho1, rel=1e-14,
                                                    abs=1e-300)


def test_alpha_tilde_sign_iff_below_threshold():
    for n, m, rho1, beta in _random_tuples(10_000, seed=7):
        p = derive_params(n, m, rho1, beta)
        # algebra: alpha_tilde = (n-2-n*m)/(m*(1-m)) * (threshold - beta)
        if beta < p.beta_threshold * (1 - 1e-12) - 1e-12:
            assert p.alpha_tilde > 0.0
        elif beta > p.beta_threshold * (1 + 1e-12) + 1e-12:
            assert p.alpha_tilde < 0.0


def test_delta_identity():
    for n, m, rho1, beta in _random_tuples(2_000, seed=11):
        p = derive_params(n, m, rho1, beta)
        assert p.delta0 == pytest.approx((1.0 - p.delta1) / 2.0, rel=1e-12,
                                         abs=1e-15)
        assert p.sigma == pytest.approx(1.0 - p.delta1, rel=1e-12, abs=1e-15)


def test_threshold_positive_and_window_nonempty():
    for n, m, rho1, beta in _random_tuples(2_000, seed=13):
        p = derive_params(n, m, rho1, beta)
        assert p.beta_threshold > 0.0
        assert -rho1 / 2.0 < p.beta_threshold


def test_origin_window_implies_farfield_window():
    for n, m, rho1, beta in _random_tuples(5_000, seed=17):
        flags = classify_regime(derive_params(n, m, rho1, beta))
        if flags.origin_admissible:
            assert flags.farfield_admissible


def test_farfield_window_monotone_in_beta():
    rng = np.random.default_rng(19)
    for n, m, rho1, _ in _random_tuples(2_000, seed=19):
        p_hi = derive_params(n, m, rho1, float(rng.uniform(-2, 2)))
        p_lo = derive_params(n, m, rho1, p_hi.beta - float(rng.uniform(0, 1)))
        if classify_regime(p_hi).farfield_admissible:
            assert classify_regime(p_lo).farfield_admissible


def test_lemma_flag_matches_quotient_bound():
    """The flag equals its defining formula, and inside the two-sided window
    it reduces to beta > 0.

    Outside the window the quotient bound also admits beta <= -rho1/2
    (there alpha <= 0 <= k*beta_tilde), so the flag does not imply beta > 0
    globally; the reduction below is scoped accordingly.
    """
    for n, m, rho1, beta in _random_tuples(5_000, seed=23):
        p = derive_params(n, m, rho1, beta)
        flags = classify_regime(p)
        expected = (p.alpha_tilde > 0.0 and p.beta_tilde != 0.0
                    and p.alpha_tilde / p.beta_tilde <= p.k)
        assert flags.lemma_applicable == expected
        if flags.origin_admissible and abs(beta) > 1e-12:
            assert flags.lemma_applicable == (beta > 0.0)


def test_alpha_exceeds_n_beta_iff_small_beta():
    for n, m, rho1, beta in _random_tuples(5_000, seed=29):
        p = derive_params(n, m, rho1, beta)
        edge = rho1 / (n - 2 - n * m)
        if abs(beta - edge) > 1e-9 * max(1.0, abs(edge)):
            assert (p.alpha > n * beta) == (beta < edge)


def test_positional_signature_order():
    a = derive_params(4, 1 / 3, 1.0, 0.25)
    b = derive_params(n=4, m=1 / 3, rho1=1.0, beta=0.25)
    assert a == b


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 11), rho1=st.floats(0.01, 100.0),
       beta=st.floats(-10.0, 10.0))
@example(n=11, rho1=1.0, beta=0.0)
def test_near_critical_m_is_refused_or_finite(n, rho1, beta):
    """At the largest double below (n-2)/n, n - 2 - n*m can round to 0 (it
    does for n = 11); that is a DomainError, never a ZeroDivisionError, and
    any accepted m carries a positive sigma and a finite threshold."""
    m = math.nextafter((n - 2) / n, 0.0)
    try:
        p = derive_params(n, m, rho1, beta)
    except DomainError as e:
        assert "n - 2 - n*m" in str(e)
        return
    assert p.sigma > 0.0
    assert math.isfinite(p.beta_threshold) and p.beta_threshold > 0.0
