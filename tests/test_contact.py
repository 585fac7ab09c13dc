import numpy as np
import pytest

from leggedmpc import contact as ct
from leggedmpc import dynamics, presets
from leggedmpc import model as mod
from leggedmpc.errors import RankDeficientContacts

from helpers import random_state, single_body


@pytest.fixture(scope="module")
def quad():
    return presets.default_quadruped()


def dense_kkt(model, q, v, u, contacts):
    """Independent oracle: the full saddle-point system K [vdot; -lam] = rhs."""
    mb = dynamics.multibody(model, q, v)
    M, h = mb.M, mb.h
    tau_b = ct.actuation(model, u) - h
    J = ct.contact_jacobian_stack(model, q, contacts.frames)
    _, _, vel, bias = dynamics.frame_motion(model, mb, contacts.frames)

    # Baumgarte velocity gain 2*zeta*omega, zeta = 1 and omega = 20 rad/s
    a_C = bias + 2.0 * 1.0 * 20.0 * vel.ravel()
    nv, nf = model.nv, contacts.nf
    K = np.zeros((nv + nf, nv + nf))
    K[:nv, :nv] = M
    K[:nv, nv:] = J.T
    K[nv:, :nv] = J
    return K, np.concatenate([tau_b, -a_C])


def dense_kkt_solve(model, q, v, u, contacts):
    sol = np.linalg.solve(*dense_kkt(model, q, v, u, contacts))
    return sol[:model.nv], -sol[model.nv:]


# ------------------------------------------------------------- forward solve

def test_matches_dense_kkt(quad):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = random_state(quad, rng, spread=0.2)
        q, v = x[: quad.nq], x[quad.nq:]
        u = rng.normal(size=quad.nu)
        contacts = ct.ContactSet(frames=(0, 1, 2, 3))
        sol = ct.contact_forward_dynamics(quad, q, v, u, contacts)
        vd_o, lam_o = dense_kkt_solve(quad, q, v, u, contacts)
        assert np.abs(sol.vdot - vd_o).max() < 1e-8
        assert np.abs(sol.forces - lam_o).max() < 1e-8
        K, rhs = dense_kkt(quad, q, v, u, contacts)
        assert np.abs(K @ np.concatenate([sol.vdot, -sol.forces]) - rhs).max() < 1e-9


def test_resting_box_normal_force():
    sb = single_body(mass=4.0, inertia=0.3)
    contacts = ct.ContactSet(frames=(0,))
    sol = ct.contact_forward_dynamics(sb, np.zeros(3), np.zeros(3), np.zeros(0), contacts)
    assert np.abs(sol.vdot).max() < 1e-10
    assert np.allclose(sol.forces, [0.0, 4.0 * 9.81], atol=1e-10)


def test_no_contacts_free_dynamics(quad):
    rng = np.random.default_rng(1)
    x = random_state(quad, rng)
    q, v = x[: quad.nq], x[quad.nq:]
    u = rng.normal(size=quad.nu)
    sol = ct.contact_forward_dynamics(quad, q, v, u, ct.ContactSet())
    mb = dynamics.multibody(quad, q, v)
    M, h = mb.M, mb.h
    assert np.allclose(sol.vdot, np.linalg.solve(M, ct.actuation(quad, u) - h), atol=1e-10)
    assert sol.forces.size == 0


def test_inverse_dynamics_roundtrip(quad):
    # rnea at the constrained solution reproduces the applied actuation
    rng = np.random.default_rng(2)
    x = random_state(quad, rng, spread=0.1)
    q, v = x[: quad.nq], x[quad.nq:]
    u = rng.normal(size=quad.nu)
    contacts = ct.ContactSet(frames=(0, 1, 2, 3))
    sol = ct.contact_forward_dynamics(quad, q, v, u, contacts)
    tau = dynamics.rnea(quad, q, v, sol.vdot,
                        (contacts.frames, sol.forces.reshape(-1, 2)))
    assert np.abs(tau - ct.actuation(quad, u)).max() < 1e-9


def test_rank_deficient_contacts_raises(quad):
    q = presets.nominal_configuration(quad)
    # duplicating a frame makes the contact-space inertia exactly singular
    contacts = ct.ContactSet(frames=(0, 0))
    with pytest.raises(RankDeficientContacts):
        ct.contact_forward_dynamics(quad, q, np.zeros(quad.nv), np.zeros(quad.nu), contacts)


def test_singular_row_of_a_stack_is_flagged_alone(quad):
    q = np.tile(presets.nominal_configuration(quad), (3, 1))
    # the middle state pins one frame twice: only its contact set is singular
    contacts = ct.ContactSet(frames=np.array([[0, 3], [1, 1], [1, 2]]))
    with pytest.raises(RankDeficientContacts) as exc:
        ct.contact_forward_dynamics(quad, q, np.zeros((3, quad.nv)),
                                    np.zeros((3, quad.nu)), contacts)
    assert exc.value.rows.tolist() == [False, True, False]


# ---------------------------------------------------------------- prediction

def test_predict_rows_match_each_row_alone(quad):
    rng = np.random.default_rng(11)
    xs = np.array([random_state(quad, rng, spread=0.1) for _ in range(3)])
    us = rng.normal(size=(3, quad.nu))
    hs = np.array([2.5e-3, 2e-3, 1e-3])
    frames = np.array([[0, 3], [1, 2], [0, 1]])
    stacked = ct.ContactSet(frames=frames)
    sols, states = ct.predict(quad, xs, us, stacked, hs, 3)
    assert len(sols) == len(states) == 3
    for b in range(3):
        alone = ct.ContactSet(frames=tuple(frames[b]))
        sols_b, states_b = ct.predict(quad, xs[b], us[b], alone, hs[b], 3)
        for k in range(3):
            assert np.array_equal(states[k][b], states_b[k])
            assert np.array_equal(sols[k].vdot[b], sols_b[k].vdot)
            assert np.array_equal(sols[k].forces[b], sols_b[k].forces)


# ------------------------------------------------------------------ impulse

def test_impulse_point_mass_momentum():
    sb = single_body(mass=2.0, inertia=0.1)
    v_minus = np.array([0.0, -3.0, 0.0])
    sol = ct.impulse_dynamics(sb, np.zeros(3), v_minus, ct.ContactSet(frames=(0,)))
    assert np.allclose(sol.impulses, [0.0, 2.0 * 3.0], atol=1e-12)
    assert np.allclose(sol.v_plus, np.zeros(3), atol=1e-12)


def test_impulse_restitution_sign(quad):
    # inelastic: the contact points come to rest, J v+ = 0
    rng = np.random.default_rng(3)
    q = presets.nominal_configuration(quad)
    v = rng.normal(size=quad.nv)
    contacts = ct.ContactSet(frames=(0, 2))
    J = ct.contact_jacobian_stack(quad, q, contacts.frames)
    M = dynamics.multibody(quad, q, v).M
    sol = ct.impulse_dynamics(quad, q, v, contacts)
    assert np.abs(J @ sol.v_plus).max() < 1e-9
    assert np.abs(M @ (sol.v_plus - v) - J.T @ sol.impulses).max() < 1e-9


def test_impulse_energy_non_increasing(quad):
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = random_state(quad, rng, spread=0.4)
        q, v = x[: quad.nq], x[quad.nq:]
        M = dynamics.multibody(quad, q, v).M
        sol = ct.impulse_dynamics(quad, q, v, ct.ContactSet(frames=(1, 3)))
        ke_minus = 0.5 * v @ M @ v
        ke_plus = 0.5 * sol.v_plus @ M @ sol.v_plus
        assert ke_plus <= ke_minus + 1e-10


def test_impulse_configuration_unchanged(quad):
    # impulse maps velocities only; caller keeps q, which the API reflects by
    # not returning any configuration at all
    q = presets.nominal_configuration(quad)
    v = np.ones(quad.nv)
    sol = ct.impulse_dynamics(quad, q, v, ct.ContactSet(frames=(0,)))
    assert sol.v_plus.shape == (quad.nv,)
    assert not hasattr(sol, "q_plus")


# -------------------------------------------------------------- derivatives

def fd_dynamics(model, q, v, u, contacts, eps=1e-6):
    nv, nu = model.nv, model.nu
    nf = contacts.nf

    def eval_at(dq, dv, du):
        qq = mod.integrate_q(model, q, dq)
        sol = ct.contact_forward_dynamics(model, qq, v + dv, u + du, contacts)
        return sol.vdot, sol.forces

    dvdot_dx = np.empty((nv, 2 * nv))
    dlam_dx = np.empty((nf, 2 * nv))
    z = np.zeros(nv)
    zu = np.zeros(nu)
    for i in range(nv):
        d = np.zeros(nv)
        d[i] = eps
        vp, lp = eval_at(d, z, zu)
        vm, lm = eval_at(-d, z, zu)
        dvdot_dx[:, i] = (vp - vm) / (2 * eps)
        dlam_dx[:, i] = (lp - lm) / (2 * eps)
        vp, lp = eval_at(z, d, zu)
        vm, lm = eval_at(z, -d, zu)
        dvdot_dx[:, nv + i] = (vp - vm) / (2 * eps)
        dlam_dx[:, nv + i] = (lp - lm) / (2 * eps)
    dvdot_du = np.empty((nv, nu))
    dlam_du = np.empty((nf, nu))
    for i in range(nu):
        d = np.zeros(nu)
        d[i] = eps
        vp, lp = eval_at(z, z, d)
        vm, lm = eval_at(z, z, -d)
        dvdot_du[:, i] = (vp - vm) / (2 * eps)
        dlam_du[:, i] = (lp - lm) / (2 * eps)
    return dvdot_dx, dvdot_du, dlam_dx, dlam_du


def _assert_close(a, b, tol):
    scale = max(1.0, np.abs(b).max())
    assert np.abs(a - b).max() / scale < tol


def test_contact_derivatives_match_fd(quad):
    rng = np.random.default_rng(5)
    for trial in range(3):
        x = random_state(quad, rng, spread=0.15)
        q, v = x[: quad.nq], x[quad.nq:]
        u = rng.normal(size=quad.nu)
        contacts = ct.ContactSet(frames=(0, 1, 2, 3))
        der = ct.contact_dynamics_derivatives(quad, q, v, u, contacts)
        fd = fd_dynamics(quad, q, v, u, contacts)
        _assert_close(der.dvdot_dx, fd[0], 1e-4)
        _assert_close(der.dvdot_du, fd[1], 1e-4)
        _assert_close(der.dforces_dx, fd[2], 1e-4)
        _assert_close(der.dforces_du, fd[3], 1e-4)


def test_contact_derivatives_free_match_fd(quad):
    rng = np.random.default_rng(6)
    x = random_state(quad, rng, spread=0.3)
    q, v = x[: quad.nq], x[quad.nq:]
    u = rng.normal(size=quad.nu)
    contacts = ct.ContactSet()
    der = ct.contact_dynamics_derivatives(quad, q, v, u, contacts)
    fd = fd_dynamics(quad, q, v, u, contacts)
    _assert_close(der.dvdot_dx, fd[0], 1e-4)
    _assert_close(der.dvdot_du, fd[1], 1e-4)


def test_control_force_sensitivity_closed_form(quad):
    # dlam/du = -Mhat^-1 J M^-1 S exactly
    q = presets.nominal_configuration(quad)
    v = np.zeros(quad.nv)
    u = np.zeros(quad.nu)
    contacts = ct.ContactSet(frames=(0, 1, 2, 3))
    sol = ct.contact_forward_dynamics(quad, q, v, u, contacts)
    der = ct.contact_dynamics_derivatives(quad, q, v, u, contacts, sol=sol)
    M, J = sol.mb.M, sol.J
    S = np.zeros((quad.nv, quad.nu))
    S[3:, :] = np.eye(quad.nu)
    Mhat = J @ np.linalg.solve(M, J.T)
    expected = -np.linalg.solve(Mhat, J @ np.linalg.solve(M, S))
    assert np.abs(der.dforces_du - expected).max() < 1e-9


def test_impulse_derivatives_match_fd(quad):
    rng = np.random.default_rng(7)
    for _ in range(2):
        x = random_state(quad, rng, spread=0.2)
        q, v = x[: quad.nq], x[quad.nq:]
        contacts = ct.ContactSet(frames=(0, 3))
        der = ct.impulse_dynamics_derivatives(quad, q, v, contacts)
        eps = 1e-6
        nv = quad.nv
        fd_v = np.empty((nv, 2 * nv))
        fd_l = np.empty((contacts.nf, 2 * nv))
        for i in range(nv):
            d = np.zeros(nv)
            d[i] = eps
            sp = ct.impulse_dynamics(quad, mod.integrate_q(quad, q, d), v, contacts)
            sm = ct.impulse_dynamics(quad, mod.integrate_q(quad, q, -d), v, contacts)
            fd_v[:, i] = (sp.v_plus - sm.v_plus) / (2 * eps)
            fd_l[:, i] = (sp.impulses - sm.impulses) / (2 * eps)
            sp = ct.impulse_dynamics(quad, q, v + d, contacts)
            sm = ct.impulse_dynamics(quad, q, v - d, contacts)
            fd_v[:, nv + i] = (sp.v_plus - sm.v_plus) / (2 * eps)
            fd_l[:, nv + i] = (sp.impulses - sm.impulses) / (2 * eps)
        _assert_close(der.dvdot_dx, fd_v, 1e-4)
        _assert_close(der.dforces_dx, fd_l, 1e-4)
        assert der.dvdot_du.shape[1] == 0
