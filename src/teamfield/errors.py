"""Exception types shared across the package.

Exit-code mapping used by the CLI lives in cli.py; modules only raise.
"""


class TeamfieldError(Exception):
    pass


class SpecParseError(TeamfieldError):
    """Raised when a game document cannot be parsed at all."""


class SpecValidationError(TeamfieldError):
    """Raised when a parsed game document violates a model invariant.

    The message names the first violated invariant and where it happened
    (team index, state/action indices).
    """


class CapacityError(TeamfieldError):
    """Raised when an enumeration (count lattice, kernel support,
    prescription set, simplex grid) would exceed its configured cap."""


class NoPureEquilibriumError(TeamfieldError):
    """Raised in strict pure-only mode when some stage game has no pure
    equilibrium; carries the offending stage and mean-field point."""

    def __init__(self, stage, z):
        self.stage, self.z = stage, z
        super().__init__("no pure equilibrium at stage %d, z=%s" % (stage, z))


class EquilibriumNotFoundError(TeamfieldError):
    """No Lemke–Howson path, from any starting label, ended in a certified
    equilibrium; callers may fall back to best-response iteration."""
