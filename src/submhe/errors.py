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


class LmiViolated(SubmheError):
    """The detectability LMI fails: its computed largest eigenvalue plus its
    rounding margin (model.lmi_margin) exceeds 0, so no ledger rests on it."""

    def __init__(self, max_eigenvalue, margin):
        super().__init__(f"detectability LMI fails: largest eigenvalue "
                         f"{max_eigenvalue:.6e} + rounding margin {margin:.1e} > 0")
        self.max_eigenvalue, self.margin = max_eigenvalue, margin


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
