"""Per-foot contact phase sequences and swing-foot reference trajectories.

A schedule describes, for every contact frame of the robot, an alternating
sequence of stance and swing phases with absolute start/end times.  Stance
phases carry the foot placement on the ground; swing phases carry the
placement the foot left from, the touchdown target it flies to, and the apex
height of the cycloidal arc connecting them.

Times are absolute (seconds from schedule start).  A stance interval is
closed on the left and open on the right, ``[touchdown, liftoff)``, so a foot
is considered in contact at the exact touchdown instant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError, check_setting

_TOL = 1e-12


@dataclass(frozen=True)
class Segment:
    """One stance-then-swing unit of a foot's gait sequence.

    ``active`` seconds of stance followed by ``inactive`` seconds of swing
    ending at ``target`` (a ground point; ``None`` keeps the current
    placement).  Either duration may be zero, which removes that phase.
    The stance duration may be ``math.inf`` for a foot that never lifts;
    then it is the foot's last phase.
    """

    active: float
    inactive: float = 0.0
    target: np.ndarray | None = None


@dataclass(frozen=True)
class Phase:
    start: float
    end: float
    in_contact: bool
    placement: np.ndarray                 # stance: foot point; swing: touchdown target
    lift_placement: np.ndarray | None = None
    apex: float = 0.0

    def contains(self, t: float) -> bool:
        return self.start - _TOL <= t < self.end - _TOL or (
            math.isinf(self.end) and t >= self.start - _TOL)


def _point(p, what: str) -> np.ndarray:
    """``p`` as a ground point; ``ScheduleError`` unless it is a finite
    (2,) vector, which None, a missing placement, is not."""
    p = np.asarray(p, float)
    if p.shape != (2,) or not np.isfinite(p).all():
        raise ScheduleError(f"{what} is not a finite (2,) point")
    return p


class ContactSchedule:
    """Compiled per-foot phase timelines with swing-reference evaluation.

    ``ScheduleError`` for a foot without a placement, or a placement or
    swing target that is not a finite (2,) point; ``ConfigError`` for a
    non-finite or negative ``apex``.
    """

    def __init__(self, segments: dict[int, list[Segment]],
                 placements: dict[int, np.ndarray], apex: float = 0.05):
        self.apex = check_setting("apex", apex, zero_ok=True)
        self._phases: dict[int, list[Phase]] = {}
        for foot, segs in segments.items():
            self._phases[foot] = self._compile(
                segs, _point(placements.get(foot), f"placement of foot {foot}"))
        self.feet = tuple(sorted(self._phases))
        if not self.feet:
            raise ScheduleError("schedule has no contact frames")

    def _compile(self, segs, placement):
        """One foot's phases from ``placement``; ``ScheduleError`` for a
        nan or negative duration, an infinite phase that is not the last
        stance, a target that is not a finite (2,) point, or no phase at
        all."""
        phases: list[Phase] = []

        def push(ph):
            # merge contiguous same-kind phases: a removed (zero-duration)
            # phase must not fabricate a touchdown or liftoff event
            if phases and phases[-1].in_contact == ph.in_contact:
                prev = phases.pop()
                ph = Phase(prev.start, ph.end, ph.in_contact, ph.placement,
                           lift_placement=prev.lift_placement, apex=ph.apex)
            phases.append(ph)

        t = 0.0
        for seg in segs:
            # a nan duration fails every comparison and would drop its phase
            if not (seg.active >= -_TOL and seg.inactive >= -_TOL):
                raise ScheduleError("phase duration is nan or negative")
            if (math.isinf(t) or math.isinf(seg.inactive)
                    or math.isinf(seg.active) and seg.inactive > _TOL):
                raise ScheduleError("only a foot's last phase, a stance, may be infinite")
            if seg.active > _TOL:
                push(Phase(t, t + seg.active, True, placement))
                t += seg.active
            if seg.inactive > _TOL:
                target = placement if seg.target is None else _point(seg.target,
                                                                     "swing target")
                push(Phase(t, t + seg.inactive, False, target,
                           lift_placement=placement, apex=self.apex))
                t += seg.inactive
                placement = target
        if not phases:
            raise ScheduleError("foot has an empty phase sequence")
        return phases

    # ----------------------------------------------------------- queries

    @property
    def end_time(self) -> float:
        return min(ph[-1].end for ph in self._phases.values())

    def covers(self, t: float) -> bool:
        return t <= self.end_time + _TOL

    def phase_at(self, foot: int, t: float) -> Phase:
        for ph in self._phases[foot]:
            if ph.contains(t):
                return ph
        raise ScheduleError(f"schedule for foot {foot} does not cover t={t:.6g}")

    def in_contact(self, foot: int, t: float) -> bool:
        return self.phase_at(foot, t).in_contact

    def active_set(self, t: float) -> tuple[int, ...]:
        return tuple(f for f in self.feet if self.in_contact(f, t))

    def placement(self, foot: int, t: float) -> np.ndarray:
        """Current placement target (stance point, or touchdown target in swing)."""
        return self.phase_at(foot, t).placement

    def touchdowns_in(self, t0: float, t1: float) -> list[tuple[float, int]]:
        """Contact-gain instants in the half-open window (t0, t1]."""
        events = []
        for foot, phases in self._phases.items():
            for ph in phases:
                if ph.in_contact and t0 + _TOL < ph.start <= t1 + _TOL:
                    events.append((ph.start, foot))
        events.sort()
        return events

    def check_grid_alignment(self, dt: float):
        """Raise when a finite phase boundary cannot be snapped to the grid.

        Boundaries snap to the nearest multiple of ``dt``; an offset at (or
        numerically indistinguishable from) half a node period is ambiguous
        and rejected.
        """
        for foot, phases in self._phases.items():
            for ph in phases:
                for edge in (ph.start, ph.end):
                    if math.isinf(edge):
                        continue
                    off = abs(edge - dt * round(edge / dt))
                    if off >= 0.5 * dt * (1.0 - 1e-9):
                        raise ScheduleError(
                            f"phase boundary {edge:.6g}s of foot {foot} is "
                            f"{off:.3g}s off the {dt:.6g}s node grid")


def evaluate_swing(ph: Phase, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Cycloid of a swing phase at time t, clamped to the phase interval."""
    T = ph.end - ph.start
    s = min(max((t - ph.start) / T, 0.0), 1.0)
    p0, p1 = ph.lift_placement, ph.placement
    two_pi = 2.0 * math.pi
    shape = s - math.sin(two_pi * s) / two_pi
    dshape = (1.0 - math.cos(two_pi * s)) / T
    pos = p0 + (p1 - p0) * shape
    vel = (p1 - p0) * dshape
    height = 0.5 * ph.apex * (1.0 - math.cos(two_pi * s))
    dheight = ph.apex * math.pi * math.sin(two_pi * s) / T
    return pos + np.array([0.0, height]), vel + np.array([0.0, dheight])


# ------------------------------------------------------------ gait builders

def stand(feet, placements) -> ContactSchedule:
    """All feet in permanent stance."""
    segs = {f: [Segment(active=math.inf)] for f in feet}
    return ContactSchedule(segs, dict(placements))


JUMP_APEX = 0.08    # a jump's swing apex, m (a trot keeps the schedule's 0.05)


def jump(feet, placements, stance: float, flight: float) -> ContactSchedule:
    """All feet leave and regain the ground together once, and then stand
    for good."""
    if flight <= 0 or stance <= 0:
        raise ScheduleError("jump phases need positive durations")
    segs = {f: [Segment(active=stance, inactive=flight), Segment(active=math.inf)]
            for f in feet}
    return ContactSchedule(segs, dict(placements), apex=JUMP_APEX)


def trot(pair_a, pair_b, placements, lead_in: float, swing: float,
         double_support: float, stride: float,
         cycles: int) -> ContactSchedule:
    """Two foot groups alternate swings, each advancing ``stride`` per cycle.

    Timing per cycle: group A swings for ``swing`` while B stands, then both
    stand for ``double_support``, then B swings, then both stand again.
    After the last cycle every foot stands for good.  ``ScheduleError``
    unless ``cycles`` is an integer of at least 1.
    """
    if swing <= 0:
        raise ScheduleError("swing duration must be positive")
    if not isinstance(cycles, numbers.Integral) or cycles < 1:
        raise ScheduleError(f"cycles must be an integer of at least 1, got {cycles!r}")
    cycle = 2 * (swing + double_support)
    segs: dict[int, list[Segment]] = {}
    step = np.array([stride, 0.0])
    for group, offset in ((pair_a, 0.0), (pair_b, swing + double_support)):
        for f in group:
            p = _point(placements.get(f), f"placement of foot {f}")
            run = [Segment(active=lead_in + offset, inactive=swing, target=p + step)]
            for j in range(1, cycles):
                run.append(Segment(active=cycle - swing, inactive=swing,
                                   target=p + (j + 1) * step))
            run.append(Segment(active=math.inf))
            segs[f] = run
    return ContactSchedule(segs, dict(placements))
