"""Exception hierarchy for chcontrol.

ConfigError maps to CLI exit code 2, SolverError subclasses to exit code 3.
Verification failures are reported through return values, not exceptions.
"""


class ChControlError(Exception):
    """Base class for all package errors."""


class ConfigError(ChControlError):
    """Invalid or inconsistent experiment configuration. The message is
    anchored to the offending config field (e.g. "model.beta: ...")."""


class GridMismatchError(ChControlError):
    """Two fields or trajectories do not live on the same grid."""


class ShapeMismatchError(ChControlError):
    """Array shape incompatible with the expected (time, space) layout."""


class TimeDomainError(ChControlError):
    """A time argument lies outside [0, T] or an invalid node index was given."""


class PotentialDomainError(ChControlError):
    """Evaluation of a singular potential outside its open domain."""

    def __init__(self, r, lo, hi):
        self.r = float(r)
        self.lo = lo
        self.hi = hi
        super().__init__(
            f"potential argument {self.r!r} outside the open domain ({lo}, {hi})"
        )


class SolverError(ChControlError):
    """Base class for failures inside the time-stepping solvers."""


class NewtonDivergenceError(SolverError):
    """The inner Newton iteration failed to reach its residual tolerance,
    usually a sign that dt is too large for the current dynamics."""

    def __init__(self, step, residual, iterations):
        self.step = step
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"Newton did not converge at step {step}: residual {residual:.3e} "
            f"after {iterations} iterations (dt too large?)"
        )


class SeparationViolationError(SolverError):
    """The phase variable reached the boundary of the singular potential's
    domain; the converged step is not trustworthy."""

    def __init__(self, step, distance):
        self.step = step
        self.distance = distance
        super().__init__(
            f"phase variable within {distance:.3e} of the potential domain "
            f"boundary at step {step}"
        )


class NanDetectedError(SolverError):
    """A non-finite value appeared in a solver frame."""

    def __init__(self, where):
        super().__init__(f"non-finite values detected in {where}")


class LineSearchFailureError(SolverError):
    """No Armijo decrease within the backtracking budget. Carries the
    offending iterate (the control array and tau) for inspection."""

    def __init__(self, iteration, block, detail="", control=None, tau=None):
        self.iteration = iteration
        self.block = block
        self.control = control
        self.tau = tau
        super().__init__(
            f"line search failed in {block} block at outer iteration "
            f"{iteration}{': ' + detail if detail else ''}"
        )
