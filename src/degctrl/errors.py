"""Exception hierarchy for the control toolkit."""


class DegctrlError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(DegctrlError):
    """Invalid or inconsistent experiment configuration."""

    def __init__(self, key: str, message: str):
        self.key, self.message = key, message
        super().__init__(f"{key}: {message}")

    def __reduce__(self):  # a sweep worker's error pickles into the parent
        return type(self), (self.key, self.message)


class WeakDegeneracyViolated(DegctrlError):
    """x*a'(x) <= K*a(x) fails with K < 1 (diffusion not weakly degenerate)."""


class NonMonotone(DegctrlError):
    """Diffusion coefficient has a' < 0 somewhere on (0, 1]."""


class NotVanishing(DegctrlError):
    """Diffusion coefficient does not vanish at x = 0."""


class PicardDivergence(DegctrlError):
    """Inner Picard loop of the nonlinear solver did not contract."""


class NewtonDivergence(DegctrlError):
    """Outer control iteration residuals grew repeatedly (data outside the
    local convergence basin)."""


class NonFiniteTrajectory(DegctrlError, ValueError):
    """A linear solve produced NaN or inf (data or controls beyond float64)."""


class ZeroDenominator(DegctrlError):
    """Inequality ratio requested with identically zero denominator."""


class AdmissibilityFail(DegctrlError):
    """No exponent in (0, 1) makes a(x)/x^theta (sampled) nonincreasing."""
