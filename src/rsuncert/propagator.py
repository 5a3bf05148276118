"""Exact spectral time evolution and the quadratic spreading law.

Free evolution multiplies the helicity amplitudes by unimodular phases
e^{-+ickt}, so the norm is exactly conserved and the packet's second moment
obeys

    d^2/dt^2 < r^2 >(t) = 2 c^2       (exactly, for any amplitudes),

i.e. <r^2>(t) is a perfect parabola with curvature c^2.  For amplitude
pairs with zero linear coefficient (e.g. real profiles) the minimum is at
t = 0 and the packet spreads symmetrically.

The grid trajectory builds the time-independent synthesis part once
(kspace._synthesis_parts) and, per time, takes one real position density
(kspace.position_density, i.e. the parts' densities(t, c, source=False)),
and no position FieldGrid is built.  That one density gives
the time's boundary ratio (the truncation check), norm (the zero-norm
check) and second moment.  evolve is the one-time case and returns the
position field itself.

The synthesis part takes one of two routes (see kspace), chosen only from
the amplitude types and the grid.  Radial amplitudes (every
saturating_amplitudes pair) on a centred even cube take the radial route:
a time step is one table of the distinct radii (6,049 at 128^3), five
terms gathered from it on the positive octant, a DCT-IV or DST-IV per axis
of each, and the two octant densities unfolded into one real density, so a
trajectory never holds a complex component.  Any other input takes the
node route (kspace.KspaceParts): one complex component at a time through
the FFT, holding also f+/(sqrt2 k k_perp), conj(f-)(-k)/(sqrt2 k k_perp)
and |k| (40 bytes a node) and no polarization frame.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

import numpy as np

from .errors import TruncationError
from .kspace import (
    FieldGrid,
    Grid3D,
    HelicityAmplitudePair,
    _boundary_ratio,
    _synthesis_parts,
    fourier_to_position,
    position_density,
    synthesize_kspace,
)
from .moments import (
    CylindricalRule,
    TRUNCATION_RATIO,
    _amp_moments,
    _grid_moment,
)

__all__ = ["Trajectory", "evolve", "spreading_trajectory"]


@dataclass
class Trajectory:
    """<r^2>(t) samples of an evolving packet, plus per-time norms."""

    times: np.ndarray
    second_moments: np.ndarray
    norms: np.ndarray
    truncated: bool = False

    @property
    def norm(self) -> float:
        return float(self.norms[0])

    def quadratic_fit(self):
        """Least-squares alpha + beta t + gamma t^2 fit.

        Returns (alpha, beta, gamma, residual) with residual the relative
        rms misfit; the spreading law asserts 2*gamma = 2 c^2.
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

    def to_json(self, indent=2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        lines = ["t,second_moment,norm"]
        for t, m, n in zip(self.times, self.second_moments, self.norms):
            lines.append(f"{t!r},{m!r},{n!r}")
        return "\n".join(lines) + "\n"


def evolve(amps: HelicityAmplitudePair, grid: Grid3D, t, c=1.0) -> FieldGrid:
    """Position-space field at time t: apply the e^{-+ickt} phases in the
    Fourier representation and transform back.  Exactly unitary in N."""
    return fourier_to_position(synthesize_kspace(amps, grid, t, c))


def spreading_trajectory(
    amps: HelicityAmplitudePair,
    times,
    grid: Grid3D = None,
    rule: CylindricalRule = None,
    c: float = 1.0,
    method: str = "grid",
    strict: bool = False,
) -> Trajectory:
    """Sample <r^2>(t) over the given times.

    times needs at least 5 finite samples with at least 3 distinct values
    (ValueError otherwise).
    method="grid": evolve on the supplied wavevector grid and its position
    dual and take Riemann-sum moments of the position density; flags
    truncation when boundary density exceeds 1e-8 of the peak (raises
    TruncationError if strict).
    method="analytic": evaluate the amplitude-path variance with
    phase-evolved amplitudes (no grid; quadrature-accurate, so the parabola
    is exact to quadrature noise).
    """
    times = np.asarray(times, dtype=float)
    if times.size < 5:
        raise ValueError("spreading_trajectory: need at least 5 time samples")
    if not np.all(np.isfinite(times)):
        raise ValueError("spreading_trajectory: times must be finite")
    if np.unique(times).size < 3:
        raise ValueError("spreading_trajectory: need at least 3 distinct times "
                         "for the quadratic fit")
    moments = np.empty(times.size)
    norms = np.empty(times.size)
    truncated = False

    if method == "grid":
        if grid is None:
            raise ValueError("spreading_trajectory: grid method needs a grid")
        parts = _synthesis_parts(amps, grid)
        rgrid = grid.fourier_dual()
        for i, t in enumerate(times):
            d = position_density(parts, t, c)
            if _boundary_ratio(d) > TRUNCATION_RATIO:
                truncated = True
                if strict:
                    raise TruncationError(
                        f"packet reached the box boundary at t = {t}; "
                        "enlarge the grid extent"
                    )
            moments[i], norms[i] = _grid_moment(d, rgrid)
            del d  # else it stays alive while the next time's density is built
    elif method == "analytic":
        # rule=None sizes the quadrature per amplitude (see moments)
        for i, t in enumerate(times):
            n, _, mr, _, _ = _amp_moments(amps.evolved(t, c), rule)
            moments[i], norms[i] = mr / n, n
    else:
        raise ValueError("spreading_trajectory: method must be 'grid' or 'analytic'")

    return Trajectory(times, moments, norms, truncated)
