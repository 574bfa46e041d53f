"""Potentials and the change of variables: closed forms as oracles."""

import numpy as np
import pytest

from pdm_spectra import (
    MassProfile,
    ModelSpec,
    Morse,
    SamsonovRoy,
    ScarfII,
    UnsupportedKindError,
    closed_form_reference,
    closed_form_target,
    ordering_preset,
    potential_decomposition,
    reference_potential,
    target_potential,
    wavefunction_pullback,
)

ZK = ordering_preset("ZhuKroemer")
GW = ordering_preset("GoraWilliams")


def test_reference_potential_spot_values():
    # ScarfII(2): V(0) = -4; SamsonovRoy: V(0) = -121/16, V(pi/2) = -1/16
    assert reference_potential(ScarfII(2.0), 0.0, 0.0) == pytest.approx(-4.0)
    assert reference_potential(SamsonovRoy(), 0.0, 0.0) == pytest.approx(-121.0 / 16.0)
    assert reference_potential(SamsonovRoy(), 0.0, np.pi / 2) == pytest.approx(
        -1.0 / 16.0, abs=1e-14
    )


def test_reference_potential_alpha0_shift():
    q = np.linspace(-2.0, 2.0, 9)
    base = reference_potential(ScarfII(2.0), 0.0, q)
    np.testing.assert_allclose(reference_potential(ScarfII(2.0), 1.5, q), base + 1.5)


@pytest.mark.parametrize("generator", [ScarfII(2.0), ScarfII(2.5, sign=-1), SamsonovRoy()])
def test_reference_closed_form_matches_generic_route(generator):
    q = np.linspace(-3.0, 3.0, 301)
    generic = reference_potential(generator, 0.0, q)
    closed = closed_form_reference(generator, q)
    assert np.max(np.abs(generic - closed)) <= 1e-12


def test_reference_closed_form_unknown_kind():
    with pytest.raises(UnsupportedKindError):
        closed_form_reference(Morse(), 0.0)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec.from_ordering(ScarfII(2.0), ZK, q_interval=(-6.0, 6.0)),
        ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 6.0)),
        ModelSpec.from_ordering(ScarfII(2.0, sign=-1), ZK, q_interval=(-6.0, 6.0)),
        ModelSpec.from_ordering(SamsonovRoy(), ZK, q_interval=(0.15, 6.0), c2=2.0),
    ],
)
def test_target_closed_form_matches_generic_route(spec):
    xa, xb = spec.x_interval
    x = np.linspace(xa + 1e-3 * (xb - xa), xb - 1e-3 * (xb - xa), 257)
    generic = target_potential(spec, x)
    closed = closed_form_target(spec, x)
    assert np.max(np.abs(generic - closed)) <= 1e-12


def test_target_closed_form_sign_branches_agree():
    # f = +exp(q) and f = -exp(q) parametrize the same rational potential
    plus = ModelSpec.from_ordering(ScarfII(2.0, sign=1), ZK, q_interval=(-4.0, 4.0))
    minus = ModelSpec.from_ordering(ScarfII(2.0, sign=-1), ZK, q_interval=(-4.0, 4.0))
    x = np.linspace(0.1, 10.0, 101)
    np.testing.assert_allclose(
        closed_form_target(plus, x), closed_form_target(minus, x), rtol=0, atol=1e-15
    )


def test_target_closed_form_unknown_kind():
    spec = ModelSpec(Morse(), ZK, MassProfile(1.0, 0.0, 0.0), q_interval=(0.5, 2.0))
    with pytest.raises(UnsupportedKindError):
        closed_form_target(spec, 2.0)


def test_target_potential_pulls_back_reference():
    # V_target(x) must be V_ref(q(x)) exactly: -i mu dF/dx collapses to -i F'(q)
    spec = ModelSpec.from_ordering(ScarfII(2.5), GW, q_interval=(0.5, 6.0))
    x = np.linspace(*spec.x_interval, 101)[1:-1]
    q = spec.profile.q_from_x(x)
    np.testing.assert_allclose(
        target_potential(spec, x),
        reference_potential(spec.generator, 0.0, q),
        rtol=0,
        atol=1e-13,
    )


def test_decomposition_triangle():
    """vtilde + mu*mu''/2 + (mu')^2/4 + i*w reassembles the full potential."""
    for spec in (
        ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-6.0, 6.0)),
        ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 6.0)),
        ModelSpec.from_ordering(SamsonovRoy(), ZK, q_interval=(0.15, 6.0), c2=2.0),
    ):
        xa, xb = spec.x_interval
        x = np.linspace(xa + 1e-3 * (xb - xa), xb - 1e-3 * (xb - xa), 220)
        dec = potential_decomposition(spec, x)
        mu, mu1, mu2, _ = spec.profile.eval(x)
        total = dec.vtilde + mu * mu2 / 2.0 + mu1 * mu1 / 4.0 + 1j * dec.w
        assert np.max(np.abs(total - target_potential(spec, x))) <= 1e-12


def test_decomposition_bare_potential_spot():
    # ZhuKroemer, delta = 0, ScarfII(2) at x = 1 (q = 0): v = -4 - 1/4
    spec = ModelSpec.from_ordering(ScarfII(2.0), ZK, q_interval=(-4.0, 4.0))
    dec = potential_decomposition(spec, 1.0)
    assert dec.v == pytest.approx(-17.0 / 4.0, rel=1e-14)
    assert dec.w == pytest.approx(0.0, abs=1e-14)
    assert dec.vtilde == pytest.approx(-17.0 / 4.0, rel=1e-14)


def test_decomposition_w_is_minus_fprime_of_q():
    spec = ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 6.0))
    x = np.linspace(*spec.x_interval, 64)[1:-1]
    q = spec.profile.q_from_x(x)
    _, fq = spec.generator(q)
    np.testing.assert_allclose(potential_decomposition(spec, x).w, -fq, rtol=0, atol=1e-13)


def test_wavefunction_pullback_values():
    # log branch: q = 1 lands at x = e with mu = e, so phi = 1 becomes e^-1/2;
    # power branch: q = 1 at delta = 1 lands at x = 1/4 with mu = 1/2
    x, psi = wavefunction_pullback(MassProfile(1.0, 0.0, 0.0), [1.0, 2.0], [1.0, 1.0])
    x2, psi2 = wavefunction_pullback(MassProfile(1.0, 0.0, 1.0), [1.0], [3.0])
    assert x == pytest.approx([np.e, np.e**2], rel=1e-15)
    assert psi == pytest.approx([np.exp(-0.5), np.exp(-1.0)], rel=1e-14)
    assert x2 == pytest.approx([0.25], rel=1e-14)
    assert psi2 == pytest.approx([3.0 * np.sqrt(2.0)], rel=1e-14)
