import time
from dataclasses import replace

import numpy as np
import pytest

from leggedmpc import contact, kinematics
from leggedmpc.errors import MaxIterations, RankDeficientContacts
from perfbench import spans, workloads


@pytest.fixture(scope="module")
def messages():
    return workloads.load_fixture()


def test_fixture_matches_its_checksum(messages):
    assert len(messages) == workloads.TROT_STEPS
    for msg in messages:
        assert len(msg.us_ff) == 4


def test_fixture_checksum_mismatch_is_refused(tmp_path, monkeypatch):
    bad = tmp_path / "trot_messages.jsonl.gz"
    bad.write_bytes(workloads.FIXTURE.read_bytes() + b"\0")
    monkeypatch.setattr(workloads, "FIXTURE", bad)
    with pytest.raises(workloads.FixtureError):
        workloads.load_fixture()


class FakeMpc:
    """Returns committed messages; raises on chosen steps after a delay."""

    def __init__(self, messages, raise_at):
        quad, q0, _ = workloads._quadruped()
        self.model = quad
        self.bounds = workloads.co.default_bounds(quad, q0)
        self.messages = messages
        self.raise_at = raise_at
        self.calls = 0

    def step(self, x, t):
        k = self.calls
        self.calls += 1
        if k in self.raise_at:
            time.sleep(0.02)
            raise self.raise_at[k]("injected")
        return self.messages[k]


def test_step_exceptions_are_counted_by_type_with_their_latency(
        messages, monkeypatch):
    monkeypatch.setattr(workloads, "TROT_STEPS", 4)
    fake = FakeMpc(messages, {1: MaxIterations, 2: RankDeficientContacts})
    degraded = replace(messages[3], diagnostics={
        **messages[3].diagnostics, "degraded": True})
    fake.messages = messages[:3] + [degraded]
    ep = workloads.TrotMpc().episode(fake, np.random.default_rng(0))
    steps = ep.requests["step"]
    assert steps.attempted == 4
    assert dict(steps.failures) == {"MaxIterations": 1,
                                    "RankDeficientContacts": 1,
                                    "degraded": 1}
    assert steps.ok_ratio == 0.25
    assert sorted(steps.seconds)[-2] >= 0.02   # failed steps keep their time
    assert not ep.problems


def test_out_of_box_feedforward_fails_the_output_check(messages):
    quad, q0, _ = workloads._quadruped()
    bounds = workloads.co.default_bounds(quad, q0)
    msg = messages[0]
    assert workloads.check_message(msg, bounds) == []
    bad = replace(msg, us_ff=[u * 0 + 1e3 for u in msg.us_ff])
    assert any("torque box" in p for p in workloads.check_message(bad, bounds))
    nan = replace(msg, xs_ref=[x * np.nan for x in msg.xs_ref])
    assert any("non-finite" in p for p in workloads.check_message(nan, bounds))


def test_controller_exceptions_are_counted(messages, monkeypatch):
    monkeypatch.setattr(workloads, "load_fixture", lambda: messages[:2])
    wl = workloads.TrotTrack()
    rng = np.random.default_rng(1)
    s = wl.setup(rng)
    real = s.wbc.control
    calls = []

    def flaky(x, t):
        calls.append(t)
        if len(calls) == 3:
            raise MaxIterations("injected")
        return real(x, t)

    monkeypatch.setattr(s.wbc, "control", flaky)
    ep = wl.episode(s, rng)
    ticks = ep.requests["wbc_tick"]
    assert ticks.attempted == 2 * workloads.TICKS_PER_MESSAGE == ep.units
    assert ticks.failures["MaxIterations"] == 1
    assert ep.requests["riccati_tick"].attempted == ticks.attempted
    assert ep.requests["update_message"].attempted == 4
    assert not ep.problems


def test_tracer_rebinds_imported_names_and_restores_them():
    fk = kinematics.forward_kinematics
    assert contact.forward_kinematics is fk
    quad, q0, _ = workloads._quadruped()
    v = np.linspace(-1, 1, quad.nv)
    u = np.zeros(quad.nu)
    cs = contact.ContactSet(frames=(0, 1, 2, 3))
    plain = contact.contact_forward_dynamics(quad, q0, v, u, cs)
    tracer = spans.Tracer()
    with tracer:
        assert contact.forward_kinematics is not fk
        assert kinematics.forward_kinematics is contact.forward_kinematics
        traced = contact.contact_forward_dynamics(quad, q0, v, u, cs)
    assert contact.forward_kinematics is fk
    assert kinematics.forward_kinematics is fk
    assert np.array_equal(plain.vdot, traced.vdot)
    assert np.array_equal(plain.forces, traced.forces)
    assert tracer.calls("contact.contact_forward_dynamics") == 1
    assert tracer.calls("kinematics.forward_kinematics") >= 1
    outer = tracer.stats["contact.contact_forward_dynamics"]
    assert outer.self_time < outer.total
    assert tracer.layer_self("kinematics") > 0.0
