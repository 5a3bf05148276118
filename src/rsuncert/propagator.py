"""Exact spectral time evolution and the quadratic spreading law.

Free evolution multiplies the helicity amplitudes by unimodular phases
e^{-+ikt} (c = 1 is fixed; another c means passing c*t as the time), so
the norm is exactly conserved and the packet's second moment obeys

    d^2/dt^2 < r^2 >(t) = 2       (exactly, for any amplitudes),

i.e. <r^2>(t) is a perfect parabola alpha + beta t + t^2.  For amplitude
pairs with zero linear coefficient (e.g. real profiles) the minimum is at
t = 0 and the packet spreads symmetrically.

The grid trajectory builds the synthesis parts of amps.evolved(t) per
time (kspace._synthesis_parts) and takes the position density's stats
from them (densities(source=False)), and no position FieldGrid is built:
the time's boundary ratio (kept: a cut-off box raises nothing), norm (the
zero-norm check) and second moment.  Time counts from the pair's own
(HelicityAmplitudePair.t), the only time the synthesis takes.  The
position field itself at time t is
fourier_to_position(synthesize_kspace(amps.evolved(t), grid)).

The synthesis parts take one of two routes (see kspace), chosen only from
the amplitude types and the grid, not the time.  Radial amplitudes (every
saturating_amplitudes pair) on a centred even cube take the radial route,
whose time step reduces three octant terms of one table of the distinct
radii and never holds a complex component or a density of the whole cube.
Any other input takes the node route, whose time step holds one component
buffer and one density (24 bytes a node).
"""

from __future__ import annotations

from dataclasses import dataclass
import json

import numpy as np

from .kspace import (
    Grid3D,
    HelicityAmplitudePair,
    _synthesis_parts,
    # not called here; kept as a binding site that bench/selftest.py checks
    # the tracer wraps and restores
    fourier_to_position,  # noqa: F401
)
from .moments import TRUNCATION_RATIO

__all__ = ["Trajectory", "spreading_trajectory"]


@dataclass
class Trajectory:
    """<r^2>(t) samples of an evolving packet, with per-time norms and ratios."""

    times: np.ndarray
    second_moments: np.ndarray
    norms: np.ndarray
    ratios: np.ndarray

    def __post_init__(self):
        for name in ("times", "second_moments", "norms", "ratios"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def norm(self) -> float:
        return float(self.norms[0])

    @property
    def cut(self) -> np.ndarray:
        """Per-time mask: the boundary ratio exceeds TRUNCATION_RATIO."""
        return np.asarray(self.ratios) > TRUNCATION_RATIO

    @property
    def truncated(self) -> bool:
        return bool(self.cut.any())

    def quadratic_fit(self):
        """Least-squares alpha + beta t + gamma t^2 fit.

        Returns (alpha, beta, gamma, residual) with residual the relative
        rms misfit; the spreading law asserts 2*gamma = 2.
        """
        gamma, beta, alpha = np.polyfit(self.times, self.second_moments, 2)
        fit = alpha + beta * self.times + gamma * self.times ** 2
        resid = np.linalg.norm(self.second_moments - fit) / np.linalg.norm(
            self.second_moments
        )
        return float(alpha), float(beta), float(gamma), float(resid)

    def to_dict(self) -> dict:
        alpha, beta, gamma, resid = self.quadratic_fit()
        return {
            "times": [float(t) for t in self.times],
            "second_moments": [float(m) for m in self.second_moments],
            "norm": self.norm,
            "norms": [float(n) for n in self.norms],
            "fit": {"alpha": alpha, "beta": beta, "gamma": gamma,
                    "residual": resid, "acceleration": 2.0 * gamma},
            "truncated": self.truncated,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        """One row a time, each value the repr of a Python float, as in to_json."""
        lines = ["t,second_moment,norm"]
        for row in zip(self.times, self.second_moments, self.norms):
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def spreading_trajectory(amps: HelicityAmplitudePair, times, grid: Grid3D) -> Trajectory:
    """Sample the Riemann-sum <r^2>(t), norm and boundary ratio (boundary
    over peak) of the position density on the dual of the wavevector grid.

    times needs at least 5 finite samples with at least 3 distinct values
    (ValueError otherwise).  A box that cuts the packet off raises nothing
    (see Trajectory.cut).
    """
    times = np.asarray(times, dtype=float)
    if times.size < 5:
        raise ValueError("spreading_trajectory: need at least 5 time samples")
    if not np.all(np.isfinite(times)):
        raise ValueError("spreading_trajectory: times must be finite")
    if np.unique(times).size < 3:
        raise ValueError("spreading_trajectory: need at least 3 distinct times "
                         "for the quadratic fit")
    ratios, moments, norms = np.array(
        [_synthesis_parts(amps.evolved(t), grid).densities(source=False)[1] for t in times]).T
    return Trajectory(times, moments, norms, ratios)
