"""Exception hierarchy shared across the package."""


class SubmheError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(SubmheError):
    pass


class BoxExcludesOrigin(SubmheError):
    pass


class CertificateNotFound(SubmheError):
    """Certificate search exhausted its budget; supply P via config."""

    def __init__(self, message, best_eigenvalue=None):
        super().__init__(message)
        self.best_eigenvalue = best_eigenvalue


class WindowLengthMismatch(SubmheError):
    pass


class DegenerateHessian(SubmheError):
    pass


class NonfiniteIterate(SubmheError):
    pass


class OracleStalled(SubmheError):
    """The oracle's error bound is above its tolerance one chunk past the
    iteration count by which the contraction puts it below: rounding."""


class ContractionViolated(SubmheError):
    """rho = 6^{1/M} * eta >= 1: the M-step decay base does not contract."""

    def __init__(self, rho, eta, horizon, suggested_horizon):
        super().__init__(
            f"rho = 6^(1/{horizon}) * {eta} = {rho:.6f} >= 1; "
            f"smallest horizon with rho < 1 is M = {suggested_horizon}"
        )
        self.rho = rho
        self.eta = eta
        self.horizon = horizon
        self.suggested_horizon = suggested_horizon


class NotFoundBelowCap(SubmheError):
    """No iteration count up to the cap satisfies the small-gain conditions."""

    def __init__(self, k_max, best_margin):
        super().__init__(
            f"no K in [1, {k_max}] passes the small-gain conditions; "
            f"best margin {best_margin:.6g}"
        )
        self.k_max = k_max
        self.best_margin = best_margin


class StabilityAssumptionViolated(SubmheError):
    pass


class UnboundedSampleBox(SubmheError):
    pass


class DegenerateDenominator(SubmheError):
    pass


class MonitorViolation(SubmheError):
    pass


class ParseError(SubmheError):
    """Configuration file is not parseable; carries the field path."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class ValidationError(SubmheError):
    """Configuration parsed but failed validation; carries the field path."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason
