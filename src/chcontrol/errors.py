"""Exception hierarchy for chcontrol, and the one rule for a config number.

ConfigError maps to CLI exit code 2, SolverError subclasses to exit code 3.
Verification failures are reported through return values, not exceptions.
:func:`check_number` is the rule every config number passes, whether the
config table reads it or a library caller hands it to an object: a bool is
never a number, a count takes no fraction, and NaN, an infinity or an
integer beyond the float range is never a number.
"""

import math
import numbers


class ChControlError(Exception):
    """Base class for all package errors."""


class ConfigError(ChControlError):
    """Invalid or inconsistent experiment configuration. The message is
    anchored to the offending config field (e.g. "model.beta: ...")."""


def check_number(field, value, low=None, high=None, *, above=False, whole=False):
    """``value``, the config number ``field``, as a float, or for a count
    (``whole``) as an int. It must be a real number that is not a bool,
    lies in the float range and is finite, is whole if ``whole`` (a whole
    float counts), and lies in [``low``, ``high``], either end None for
    open, ``low`` excluded if ``above``. Else a ConfigError
    "<field>: expected <what>, got <value!r>"."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if (math.isfinite(number) and (not whole or number.is_integer())
            and (low is None or (number > low if above else number >= low))
            and (high is None or number <= high)):
        return int(value) if whole else number
    what = "an integer" if whole else "a finite number"
    if above and low == 0 and not whole:
        what = "a finite positive number"
    elif high is not None:
        what += f" in [{low}, {high}]"
    elif low is not None:
        what += f" {'>' if above else '>='} {low}"
    raise ConfigError(f"{field}: expected {what}, got {value!r}")


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
        # with no iteration made, the budget is the cause, not dt
        hint = " (dt too large?)" if iterations else ""
        super().__init__(
            f"Newton did not converge at step {step}: residual {residual:.3e} "
            f"after {iterations} iterations{hint}"
        )


class StepSolveError(SolverError):
    """The iterative 2D step solve did not reach its normwise backward error
    bound within its iteration budget."""

    def __init__(self, backward_error, iterations, bound):
        self.backward_error = backward_error
        self.iterations = iterations
        super().__init__(
            f"GMRES step solve stopped at normwise backward error "
            f"{backward_error:.3e} after {iterations} iterations, above its "
            f"bound {bound:.0e}"
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

    def __init__(self, iteration, detail="", control=None, tau=None):
        self.iteration = iteration
        self.control = control
        self.tau = tau
        super().__init__(
            f"line search failed in control block at outer iteration "
            f"{iteration}{': ' + detail if detail else ''}"
        )
