"""Orderings, mass profiles, and generators: exact values and guards."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_spectra import (
    AmbiguityOrdering,
    BadIntervalError,
    BetaMinusOneError,
    Constant,
    ConstantMass,
    MassProfile,
    ModelSpec,
    Morse,
    ORDERING_PRESETS,
    OutOfDomainError,
    OutOfRangeError,
    SamsonovRoy,
    ScarfII,
    delta_of,
    ordering_preset,
)


@pytest.mark.parametrize(
    "name,alpha,beta,gamma",
    [
        ("GoraWilliams", Fraction(-1), Fraction(0), Fraction(0)),
        ("BenDanielDuke", Fraction(0), Fraction(-1), Fraction(0)),
        ("ZhuKroemer", Fraction(-1, 2), Fraction(0), Fraction(-1, 2)),
        ("LiKuhn", Fraction(0), Fraction(-1, 2), Fraction(-1, 2)),
        ("MustafaMazharimousavi", Fraction(-1, 4), Fraction(-1, 2), Fraction(-1, 4)),
    ],
)
def test_preset_exponents(name, alpha, beta, gamma):
    o = ordering_preset(name)
    assert (o.alpha, o.beta, o.gamma) == (alpha, beta, gamma)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("GoraWilliams", Fraction(1)),
        ("ZhuKroemer", Fraction(0)),
        ("LiKuhn", Fraction(1)),
        ("MustafaMazharimousavi", Fraction(1, 2)),
    ],
)
def test_preset_delta_exact(name, expected):
    # exact rational arithmetic: == on Fractions, no tolerance
    assert delta_of(ordering_preset(name)) == expected


def test_bendanielduke_delta_undefined():
    with pytest.raises(BetaMinusOneError):
        delta_of(ordering_preset("BenDanielDuke"))


def test_delta_formula_on_custom_ordering():
    # 4a + 1 + 4a^2/(b+1) at a = b = -1/3 gives -1/3 + 1 + (4/9)/(2/3) - 1 = 1/3
    o = AmbiguityOrdering(Fraction(-1, 3), Fraction(-1, 3), Fraction(-1, 3))
    assert delta_of(o) == Fraction(1, 3)


def test_ordering_sum_enforced():
    with pytest.raises(ValueError, match="sum to -1"):
        AmbiguityOrdering(0, 0, 0)


def test_ordering_accepts_floats_exactly():
    o = AmbiguityOrdering(-0.25, -0.5, -0.25)
    assert o.alpha == Fraction(-1, 4)


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown ordering preset"):
        ordering_preset("Weyl")


def test_presets_complete():
    assert len(ORDERING_PRESETS) == 5


def test_map_log_branch():
    p = MassProfile(1.0, 0.0, 0.0)
    assert p.q_from_x(np.e) == pytest.approx(1.0, abs=1e-15)
    assert p.x_from_q(1.0) == pytest.approx(np.e, rel=1e-15)


def test_map_power_branch():
    # delta = 1: q = 2*sqrt(u), so x = 4 maps to q = 4
    p = MassProfile(1.0, 0.0, 1.0)
    assert p.q_from_x(4.0) == pytest.approx(4.0, abs=1e-14)
    assert p.x_from_q(4.0) == pytest.approx(4.0, rel=1e-14)


def test_map_with_shift():
    p = MassProfile(1.0, 2.0, 0.0)
    assert p.x_from_q(np.pi) == pytest.approx(np.exp(np.pi) - 2.0, rel=1e-15)


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 2.0])
def test_map_roundtrip(delta):
    p = MassProfile(1.5, 0.25, delta)
    x = np.linspace(0.1, 7.0, 41)
    np.testing.assert_allclose(p.x_from_q(p.q_from_x(x)), x, rtol=1e-12)


def test_profile_values_spot():
    # u = 4 at delta = 1: mu = 2, mu' = 1/4, mu'' = -1/32, M = 1/4
    vals = MassProfile(1.0, 0.0, 1.0).eval(4.0)
    assert vals.mu == pytest.approx(2.0, rel=1e-15)
    assert vals.mu_prime == pytest.approx(0.25, rel=1e-15)
    assert vals.mu_second == pytest.approx(-1.0 / 32.0, rel=1e-15)
    assert vals.mass == pytest.approx(0.25, rel=1e-15)


def test_mass_derivatives_spot():
    # M = 1/u at delta = 1: M(4) = 1/4, M'(4) = -1/16, M''(4) = 1/32
    m, m1, m2 = MassProfile(1.0, 0.0, 1.0).mass_derivatives(4.0)
    assert m == pytest.approx(0.25, rel=1e-15)
    assert m1 == pytest.approx(-1.0 / 16.0, rel=1e-15)
    assert m2 == pytest.approx(1.0 / 32.0, rel=1e-15)


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
def test_mu_prime_mu_delta_is_constant(delta):
    # the class is defined by mu' * mu^delta == c1/(delta+1)
    p = MassProfile(1.0, 0.0, delta)
    x = np.linspace(0.05, 9.0, 100)
    vals = p.eval(x)
    np.testing.assert_allclose(
        vals.mu_prime * vals.mu**delta, 1.0 / (delta + 1.0), rtol=1e-12
    )


def test_derivatives_match_centered_differences():
    p = MassProfile(1.0, 0.5, 0.5)
    x = np.linspace(0.5, 4.0, 17)

    def worst(h):
        numeric = (p.eval(x + h).mu - p.eval(x - h).mu) / (2.0 * h)
        return np.max(np.abs(numeric - p.eval(x).mu_prime))

    # second-order differences: halving h divides the error by about 4
    assert worst(1e-3) / worst(5e-4) >= 3.5


def test_domain_guard():
    p = MassProfile(1.0, 0.0, 1.0)
    with pytest.raises(OutOfDomainError):
        p.eval(-1.0)
    with pytest.raises(OutOfDomainError):
        p.eval(np.array([1.0, 0.0]))  # the singular point itself is out


def test_half_line_image_guard():
    # delta > 0 maps only onto q > 0
    with pytest.raises(OutOfRangeError):
        MassProfile(1.0, 0.0, 1.0).x_from_q(-0.5)


def test_profile_constructor_guards():
    with pytest.raises(ValueError):
        MassProfile(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        MassProfile(1.0, 0.0, -1.0)


_profiles = st.one_of(
    st.just(ConstantMass()),
    st.builds(
        MassProfile,
        st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
        st.floats(-2.0, 2.0),
        st.just(0.0) | st.floats(0.1, 3.0) | st.floats(-0.8, -0.1),
    ),
)
_generators = st.one_of(
    st.builds(ScarfII, st.floats(0.1, 5.0), st.sampled_from((-1, 1))),
    st.just(SamsonovRoy()),
    st.builds(Morse, st.floats(-3.0, 3.0)),
    st.builds(Constant, st.floats(-3.0, 3.0)),
)
_arguments = st.lists(st.floats(0.05, 10.0), min_size=1, max_size=8)
_property = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _points(profile, u):
    """Positions with c1*x + c2 = u > 0, inside any profile's domain."""
    c1, c2 = (profile.c1, profile.c2) if isinstance(profile, MassProfile) else (1.0, 0.0)
    return (np.array(u) - c2) / c1, c1, c2


def _same_number(scalar_result, array_result, scale=0.0):
    # A scalar argument gives a 0-d result, equal to the one-element array's
    # up to the last bits, where numpy's scalar and array arithmetic differ;
    # `scale` bounds the terms that cancel in the result.
    s, a = np.asarray(scalar_result), np.asarray(array_result)
    assert s.shape == () and a.shape == (1,)
    np.testing.assert_allclose(s, a[0], rtol=1e-14, atol=1e-14 * scale)


@_property
@given(_profiles, _arguments)
def test_map_roundtrip_property(profile, u):
    x, c1, c2 = _points(profile, u)
    back = profile.x_from_q(profile.q_from_x(x))
    assert back.shape == x.shape
    # The round trip may lose a few ulps of u = c1*x + c2, and so of c1*x.
    assert np.all(np.abs(back - x) <= 1e-12 * (np.array(u) + abs(c2)) / abs(c1))


@_property
@given(_profiles, _arguments)
def test_profile_scalar_matches_one_element_array(profile, u):
    x, c1, c2 = _points(profile, u)
    x0 = float(x[0])
    q0 = float(profile.q_from_x(x0))
    for scalar, array in zip(profile.eval(x0), profile.eval(x[:1])):
        _same_number(scalar, array)
    for scalar, array in zip(profile.mass_derivatives(x0), profile.mass_derivatives(x[:1])):
        _same_number(scalar, array)
    _same_number(profile.q_from_x(x0), profile.q_from_x(x[:1]))
    _same_number(profile.x_from_q(q0), profile.x_from_q(np.array([q0])),
                 scale=(u[0] + abs(c2)) / abs(c1))


@_property
@given(_generators, st.floats(-5.0, 5.0))
def test_generator_scalar_matches_one_element_array(generator, q):
    for scalar, array in zip(generator(q), generator(np.array([q]))):
        _same_number(scalar, array)


def test_constant_mass_is_identity():
    cm = ConstantMass()
    x = np.linspace(-5.0, 5.0, 7)
    vals = cm.eval(x)
    assert np.all(vals.mu == 1.0) and np.all(vals.mass == 1.0)
    assert np.all(vals.mu_prime == 0.0) and np.all(vals.mu_second == 0.0)
    np.testing.assert_array_equal(cm.q_from_x(x), x)
    np.testing.assert_array_equal(cm.x_from_q(x), x)


def test_scarf2_values():
    f, fp = ScarfII(2.0)(0.0)
    assert f == pytest.approx(-2.0) and fp == 0.0
    f, fp = ScarfII(2.0)(1.0)
    assert f == pytest.approx(-2.0 / np.cosh(1.0), rel=1e-15)
    assert fp == pytest.approx(2.0 * np.tanh(1.0) / np.cosh(1.0), rel=1e-15)


def test_scarf2_guards():
    with pytest.raises(ValueError):
        ScarfII(0.0)
    with pytest.raises(ValueError):
        ScarfII(1.0, sign=2)


def test_samsonov_roy_values():
    f, fp = SamsonovRoy()(0.0)
    assert f == pytest.approx(11.0 / 4.0, rel=1e-15)
    assert fp == pytest.approx(0.0, abs=1e-15)


def test_samsonov_roy_pi_periodic():
    q = np.linspace(-1.5, 1.5, 9)
    f1, fp1 = SamsonovRoy()(q)
    f2, fp2 = SamsonovRoy()(q + np.pi)
    np.testing.assert_allclose(f1, f2, rtol=1e-12)
    np.testing.assert_allclose(fp1, fp2, atol=1e-12)


def test_morse_values():
    f, fp = Morse(1.0)(0.0)
    assert f == 1.0 and fp == -1.0


def test_constant_generator():
    f, fp = Constant(2.5)(np.array([0.0, 1.0]))
    assert np.all(f == 2.5) and np.all(fp == 0.0)
    assert str(Constant(2.5)) == "Constant(value=2.5)"


def test_spec_interval_validation():
    zk = ordering_preset("ZhuKroemer")
    with pytest.raises(BadIntervalError):
        ModelSpec(ScarfII(2.0), zk, ConstantMass(), q_interval=(1.0, -1.0))


def test_spec_rejects_window_outside_map_image():
    # delta = 1 reaches only q > 0, so a window crossing 0 cannot be mapped
    with pytest.raises(OutOfRangeError):
        ModelSpec.from_ordering(
            ScarfII(2.0), ordering_preset("GoraWilliams"), q_interval=(-1.0, 1.0)
        )


def test_from_ordering_derives_exponent():
    spec = ModelSpec.from_ordering(
        ScarfII(2.0), ordering_preset("MustafaMazharimousavi"), q_interval=(0.5, 4.0)
    )
    assert spec.profile.delta == pytest.approx(0.5)


def test_x_interval_is_map_image():
    spec = ModelSpec.from_ordering(
        ScarfII(2.0), ordering_preset("ZhuKroemer"), q_interval=(-1.0, 1.0)
    )
    a, b = spec.x_interval
    assert a == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert b == pytest.approx(np.e, rel=1e-15)
