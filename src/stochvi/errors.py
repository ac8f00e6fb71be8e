"""Exception types shared across the toolkit.

The type of an error is its command-line exit code, so the CLI sorts
nothing by hand:

* ConfigError (a ValueError): the input is wrong, exit 2.  A malformed
  matrix, game file or option value, an unknown method or scheme, or a
  request the code cannot serve (an operator without an equilibrium, too
  few traces).
* NumericalError (an ArithmeticError): the input is well formed but the
  game cannot be certified or computed, exit 3.  A singular or not
  strongly monotone mean Jacobian, a matrix that is not co-coercive, a
  step size outside a bound's range, or a non-finite result.

Each message names what went wrong; nothing else leaves the CLI.
"""


class ConfigError(ValueError):
    """Invalid input, configuration or request (exit 2)."""


class NumericalError(ArithmeticError):
    """A game or computation that cannot be certified (exit 3)."""


class UnsupportedSchemeError(ConfigError):
    """Constant formulas are not available for this sampling scheme."""
