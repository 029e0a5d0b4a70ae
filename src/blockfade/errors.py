"""The package's one exception type."""


class InvalidParameterError(ValueError):
    """A constructor or operation received parameters outside its contract."""
