import pytest

from perfbench import run, speed, workloads
from perfbench.stats import Requests


def probe_with(*blocks):
    probe = speed.SpeedProbe()
    probe.blocks = [list(b) for b in blocks]
    return probe


def test_scale_uses_the_mean_of_the_blocks_on_both_sides():
    ref = speed.REF_KERNEL_S
    probe = probe_with([ref, ref], [2 * ref, 2 * ref], [2 * ref, 4 * ref])
    assert probe.scale(0) == pytest.approx(1 / 1.5)
    assert probe.scale(1) == pytest.approx(1 / 2.5)


def test_scale_trims_a_tenth_at_each_end():
    ref = speed.REF_KERNEL_S
    probe = probe_with([ref] * 5, [ref] * 4 + [50 * ref])  # one interrupt
    assert probe.scale(0) == pytest.approx(1.0)


def test_mark_times_one_block_of_kernels():
    probe = speed.SpeedProbe()
    assert probe.mark() == 0 and probe.mark() == 1
    probe.mark(speed.SHORT_SAMPLES)
    assert [len(b) for b in probe.blocks] == [speed.SAMPLES] * 2 + [
        speed.SHORT_SAMPLES]
    assert all(t > 0 for b in probe.blocks for t in b)
    assert probe.scale(0) > 0


def test_rescale_scales_each_piece_by_its_own_block():
    ref = speed.REF_KERNEL_S
    probe = probe_with([ref], [ref], [2 * ref])
    r = Requests()
    r.record(0.010, block=0)
    r.record_pieces([(0.010, 0), (0.030, 1)], "MaxIterations")
    r.rescale(probe)
    assert r.seconds == [0.010, 0.040]              # wall time is kept
    assert r.ref_seconds == pytest.approx([0.010, 0.010 + 0.030 / 1.5])
    assert r.failed == 1
    assert r.summary()["ref_ms"]["n"] == 2


@pytest.mark.parametrize("name, episodes", [
    ("trot_mpc", 1), ("jump_solve", 4), ("trot_track", 4)])
def test_work_per_run_depends_on_seconds_not_the_clock(name, episodes):
    wl = workloads.WORKLOADS[name]
    assert run.episode_count(wl, 25) == episodes
    assert run.episode_count(wl, 0) == 1
