"""Exception types shared across the package."""


class RsUncertError(Exception):
    """Base class for all package-specific errors."""


class AxisSingularityError(RsUncertError):
    """A wavevector lies on (or too close to) the kz-axis, where the
    helicity polarization frame e(k) is undefined (k_perp = 0 is a 0/0)."""


class DegenerateFieldError(RsUncertError):
    """Zero (or non-normalizable) field: variances are undefined."""


class GridMismatchError(RsUncertError):
    """A field is not in the space a transform takes (fourier_to_position
    takes a wavevector field)."""


class ResolutionError(RsUncertError):
    """Radial eigenproblem parameters cannot resolve the requested states."""


class SingularAmplitudeError(RsUncertError):
    """Helicity amplitudes carry weight on the kz-axis, making the
    1/k_perp^2 variance integrand non-integrable."""


class TruncationError(RsUncertError):
    """Field density at the grid boundary is too large for a trustworthy
    second moment (wave packet leaking out of the box)."""


class RsfFormatError(RsUncertError):
    """Malformed .rsf field-grid file."""
