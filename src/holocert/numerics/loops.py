"""Loops in the twice-punctured w-plane, built from lines and circular arcs.

The standard generators mu1, mu2 go from the origin straight toward the
puncture (-1 or +1), once counterclockwise around a circle of the given
radius, and straight back.  Loop words are traversed leftmost-first at
the path level, so gamma1 = mu2 mu1 mu2^-1 mu1^-1 means: walk mu2 first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

RADIUS = 0.5  # the laboratory's loop radius; radius-independence also runs 2/3 of it
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Line:
    start: complex
    end: complex

    def point(self, t):
        return self.start + t * (self.end - self.start)

    def velocity(self, t):
        return self.end - self.start

    def reversed(self) -> "Line":
        return Line(self.end, self.start)


@dataclass(frozen=True)
class Arc:
    """Circular arc traversed from theta0 to theta1 (counterclockwise if
    theta1 > theta0); angles are not reduced mod 2 pi, so a full turn is
    theta1 = theta0 + 2 pi."""

    center: complex
    radius: float
    theta0: float
    theta1: float

    def point(self, t):
        th = self.theta0 + t * (self.theta1 - self.theta0)
        return self.center + self.radius * np.exp(1j * th)

    def velocity(self, t):
        th = self.theta0 + t * (self.theta1 - self.theta0)
        return 1j * (self.theta1 - self.theta0) * self.radius * np.exp(1j * th)

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.theta1, self.theta0)


@dataclass(frozen=True)
class Loop:
    segments: tuple
    label: str

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a loop needs at least one segment")
        for prev, nxt in zip(self.segments[:-1], self.segments[1:]):
            if abs(prev.point(1.0) - nxt.point(0.0)) > 1e-12:
                raise ValueError(f"loop {self.label!r}: discontinuous segments")
        if abs(self.segments[-1].point(1.0) - self.segments[0].point(0.0)) > 1e-12:
            raise ValueError(f"loop {self.label!r}: does not end where it starts")

    def inverse(self) -> "Loop":
        segs = tuple(s.reversed() for s in reversed(self.segments))
        return Loop(segs, label=f"{self.label}^-1")


def nodes(segments, t):
    """The points and velocities of segments[k] at the parameters t[k], for
    a (len(segments), n) array t: one array expression per segment kind,
    that kind's own point and velocity on one segment whose fields are
    columns of the segments' fields.  So every node is the same elementwise
    arithmetic as segments[k].point(t[k]), bit for bit."""
    kinds = {}
    for k, seg in enumerate(segments):
        kinds.setdefault(type(seg), []).append(k)
    batches = []
    for kind, index in kinds.items():
        batch = kind(*(np.array([getattr(segments[k], f.name) for k in index])[:, None] for f in fields(kind)))
        batches.append((index, batch.point(t[index]), batch.velocity(t[index])))
    w = np.empty(t.shape, np.result_type(*(point for _, point, _ in batches)))
    dw = np.empty(t.shape, np.result_type(*(velocity for *_, velocity in batches)))
    for index, point, velocity in batches:
        w[index], dw[index] = point, velocity
    return w, dw


def concat(*loops: Loop, label: str) -> Loop:
    segs = tuple(s for lp in loops for s in lp.segments)
    return Loop(segs, label=label)


@dataclass(frozen=True)
class LoopSystem:
    radius: float
    mu1: Loop
    mu2: Loop
    gamma1: Loop
    gamma2: Loop


def _generator(puncture: complex, radius: float, label: str) -> Loop:
    """Straight out from 0, once counterclockwise, straight back."""
    approach = puncture * (1.0 - radius)  # nearest circle point to the origin
    theta0 = cmath.phase(approach - puncture)
    return Loop(
        (
            Line(0j, approach),
            Arc(puncture, radius, theta0, theta0 + _TWO_PI),
            Line(approach, 0j),
        ),
        label=label,
    )


def build_loops(radius: float) -> LoopSystem:
    """The generators and the two commutator words, read leftmost-first.

    gamma1 = mu2 mu1 mu2^-1 mu1^-1 and gamma2 = mu2 mu1^2 mu2^-1 mu1^-2.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {radius}")
    mu1 = _generator(-1.0 + 0j, radius, "mu1")
    mu2 = _generator(1.0 + 0j, radius, "mu2")
    inv1 = mu1.inverse()
    inv2 = mu2.inverse()
    gamma1 = concat(mu2, mu1, inv2, inv1, label="gamma1")
    gamma2 = concat(mu2, mu1, mu1, inv2, inv1, inv1, label="gamma2")
    return LoopSystem(radius, mu1, mu2, gamma1, gamma2)
