"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Bad or missing key in a config file; message carries key and line."""


class ParameterError(ValueError):
    """Physical parameter violates its validity constraints."""


class InputError(ValueError):
    """Runtime input outside an operation's domain (bad rotation, negative h, ...)."""


class ReferenceGenerationError(RuntimeError):
    """Flatness reference could not be produced (non-convergence, free fall)."""


class ControllerFault(RuntimeError):
    """Controller internal consistency violation (a non-finite thrust or torque command)."""


class SimulationFault(RuntimeError):
    """Integration produced a non-finite state."""


class FitError(RuntimeError):
    """Parameter identification failed (non-convergence, unidentifiable data)."""
