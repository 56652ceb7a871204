"""The error for a ``BOMP_*`` environment variable with a bad value.

Each variable is parsed where it is read; a value it does not accept
raises :class:`EnvVarError` naming the variable and the value, which
``python -m repro`` prints as one line instead of a traceback.
"""


class EnvVarError(ValueError):
    """A ``BOMP_*`` variable holds a value it does not accept."""
