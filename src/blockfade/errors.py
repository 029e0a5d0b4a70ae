"""Exception types shared across the package."""


class BlockfadeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(BlockfadeError, ValueError):
    """A constructor or operation received parameters outside its contract."""
