"""The Hermitian basis that every stepper carries its states in, and the
real maps built in it: round trips, agreement with the complex maps they
replace, and bitwise stack steps at every dimension the basis has a branch
for (``n = 1`` has no pair of levels, ``n = 3`` has two diagonal
generators)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from smefilter.diffusion import (
    PathwiseIntegrator,
    RobustStepper,
    _em_maps,
    _em_step_many,
)
from smefilter.jump import _euler_maps, _euler_step_many, _exact_propagator, _exact_step_many
from smefilter.linalg import dagger, expm, hermitian_basis, kron
from smefilter.model import SIGMA_X, SIGMA_Y, SIGMA_Z, build_diffusion_model, build_jump_model

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)
DIMS = hst.sampled_from((1, 2, 3))
SEEDS = hst.integers(0, 2**32 - 1)


def complex_matrix(rng, n, scale=1.0):
    return scale * (rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n)))


def hermitian(rng, n):
    a = complex_matrix(rng, n)
    return 0.5 * (a + dagger(a))


def density(rng, n):
    a = complex_matrix(rng, n)
    rho = a @ dagger(a)
    return rho / np.trace(rho).real


def diffusion_model(rng, n):
    return build_diffusion_model(hermitian(rng, n), complex_matrix(rng, n, 0.8), rng.uniform(0.3, 1.0))


def jump_model(rng, n):
    # an invertible C of norm about 1, so a count never annihilates a state
    c = np.eye(n) + complex_matrix(rng, n, 0.3)
    return build_jump_model(c, hermitian(rng, n), rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.0))


def complex_map(basis, real):
    """A real map on coordinates as the map on column-stacked vectors."""
    return basis._v @ real @ basis._t


def relative_gap(got, *terms):
    """The largest gap of ``got`` to the sum of ``terms``, relative to the
    largest entries of the terms, which may cancel (for ``n = 1`` the drift
    is zero)."""
    return np.abs(got - sum(terms)).max() / sum(np.abs(t).max() for t in terms)


def test_pauli_coordinates_are_the_trace_and_bloch_vector():
    pauli = hermitian_basis(2)
    assert pauli.coords(np.full((2, 2), 0.5)).tolist() == [1.0, 1.0, 0.0, 0.0]
    for k, sigma in enumerate((SIGMA_X, SIGMA_Y, SIGMA_Z), start=1):
        assert np.array_equal(pauli.mats[k], sigma)
        assert np.array_equal(pauli.matrices(np.eye(4)[k]), sigma / 2.0)


@SETTINGS
@given(n=DIMS, seed=SEEDS)
def test_round_trip(n, seed):
    basis = hermitian_basis(n)
    rho = hermitian(np.random.default_rng(seed), n)
    s = basis.coords(rho)
    assert s.dtype == float and s.shape == (n * n,)
    assert s[0] == pytest.approx(np.trace(rho).real, abs=1e-15)
    back = basis.matrices(s)
    assert np.abs(back - rho).max() <= 1e-15
    assert np.array_equal(back, dagger(back))
    # a stack converts element by element, bitwise
    stack = np.stack([rho, 2.0 * rho, -rho])
    assert basis.coords(stack)[0].tobytes() == s.tobytes()
    assert basis.matrices(basis.coords(stack))[0].tobytes() == back.tobytes()


@SETTINGS
@given(n=DIMS, seed=SEEDS)
def test_functional_is_the_trace(n, seed):
    rng = np.random.default_rng(seed)
    basis = hermitian_basis(n)
    a, rho = complex_matrix(rng, n), hermitian(rng, n)
    assert basis.functional(a) @ basis.coords(rho) == pytest.approx(np.trace(a @ rho).real, abs=1e-14)


@SETTINGS
@given(n=DIMS, seed=SEEDS)
def test_diffusion_maps_are_the_complex_maps(n, seed):
    rng = np.random.default_rng(seed)
    basis, m, dt = hermitian_basis(n), diffusion_model(rng, n), rng.uniform(0.001, 0.1)
    K, L, k2, eye = m.K, m.L, m.kappa**2, np.eye(n)
    dys = rng.normal(0.0, 3.0 * np.sqrt(dt), 3)
    # the robust step map: S (E rho E^dag) with the inverse S of the implicit system
    system = np.eye(n * n) + dt * (kron(eye, K) + kron(K.conj(), eye)) - (1.0 - 1.0 / k2) * dt * kron(L.conj(), L)
    for dy, real in zip(dys, RobustStepper(m, dt).step_maps(dys)):
        e = expm(L * (dy / k2) - (L @ L) * (dt / (2.0 * k2)))
        assert relative_gap(complex_map(basis, real), np.linalg.solve(system, kron(e.conj(), e))) <= 1e-13
    # the pathwise step map: the exponential of the generator
    j0 = K + (L @ L) / (2.0 * k2)
    for dy, real in zip(dys, PathwiseIntegrator(m, dt).step_maps(dys)):
        j = j0 - (dy / (dt * k2)) * L
        gen = (1.0 - 1.0 / k2) * kron(L.conj(), L) - kron(eye, j) - kron(j.conj(), eye)
        assert relative_gap(complex_map(basis, real), expm(dt * gen)) <= 1e-13
    # the Euler-Maruyama maps
    maps = _em_maps(m)
    drift = (kron(L.conj(), L), -kron(eye, K), -kron(K.conj(), eye))
    assert relative_gap(complex_map(basis, maps[1 : 1 + n * n]), *drift) <= 1e-13
    assert relative_gap(complex_map(basis, maps[1 + n * n :]), kron(eye, L), kron(L.conj(), eye)) <= 1e-13
    assert np.array_equal(maps[0], basis.functional(L + dagger(L)))


@SETTINGS
@given(n=DIMS, seed=SEEDS)
def test_jump_maps_are_the_complex_maps(n, seed):
    rng = np.random.default_rng(seed)
    basis, m, dt = hermitian_basis(n), jump_model(rng, n), rng.uniform(0.001, 0.05)
    C, G, lam, eta, eye = m.C, m.G, m.lam, m.eta, np.eye(n)
    jump = kron(C.conj(), C)
    drift = (-dt * kron(eye, G), -dt * kron(G.conj(), eye), dt * (1.0 - eta) * lam * jump)
    jump_map, phi = _exact_propagator(m, dt)
    assert relative_gap(complex_map(basis, jump_map), jump) <= 1e-13
    assert relative_gap(complex_map(basis, phi), expm(sum(drift) + dt * eta * lam * np.eye(n * n))) <= 1e-13
    maps = _euler_maps(m, dt)
    assert relative_gap(complex_map(basis, maps.jump), jump) <= 1e-13
    assert relative_gap(complex_map(basis, maps.step[1:]), *drift) <= 1e-13
    assert np.array_equal(maps.step[0], basis.functional(dagger(C) @ C))


def stack_steps(n, rng):
    """Each scheme's stack step ``(s, values, t) -> (s, dlog)`` and its
    single step ``(s, value, t) -> (s, dlog)`` for an ``n``-level model."""
    dm, jm, dt = diffusion_model(rng, n), jump_model(rng, n), 0.01
    robust, pathwise = RobustStepper(dm, dt), PathwiseIntegrator(dm, dt)
    em, euler, exact = _em_maps(dm), _euler_maps(jm, dt), _exact_propagator(jm, dt)

    def one(stack):
        def single(s, v, t):
            x, dlog = stack(s[None], np.array([v]), t)
            return x[0], dlog[0]

        return single

    def em_stack(s, dy, t):
        return _em_step_many(em, dm.kappa, s, dy, dt, t)

    def euler_stack(s, dn, t):
        return _euler_step_many(euler, s, dn, t)

    def exact_stack(s, dn, t):
        return _exact_step_many(*exact, s, dn, t)

    return {
        "robust": (robust.advance_many, robust.advance, "dy"),
        "pathwise": (pathwise.advance_many, pathwise.advance, "dy"),
        "em": (em_stack, one(em_stack), "dy"),
        "jump-em": (euler_stack, one(euler_stack), "dn"),
        "jump-pathwise": (exact_stack, one(exact_stack), "dn"),
    }


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("scheme", ["robust", "pathwise", "em", "jump-em", "jump-pathwise"])
def test_stack_step_is_each_single_step_bitwise(n, scheme):
    rng = np.random.default_rng(100 * n + len(scheme))
    stack, single, kind = stack_steps(n, rng)[scheme]
    basis = hermitian_basis(n)
    states = basis.coords(np.stack([density(rng, n) for _ in range(14)]))
    values = rng.normal(0.0, 0.3, 14) if kind == "dy" else rng.random(14) < 0.5
    full, full_dlog = stack(states[:7], values[:7], 0.37)
    rev, rev_dlog = stack(states[:7][::-1], values[:7][::-1], 0.37)
    part, part_dlog = stack(states[::2], values[::2], 0.37)
    assert rev[::-1].tobytes() == full.tobytes() and rev_dlog[::-1].tobytes() == full_dlog.tobytes()
    for b in range(14):
        one, one_dlog = single(states[b].copy(), values[b], 0.37)
        if b < 7:
            assert full[b].tobytes() == one.tobytes() and full_dlog[b] == one_dlog
        if b % 2 == 0:
            assert part[b // 2].tobytes() == one.tobytes() and part_dlog[b // 2] == one_dlog
