"""Base class of the package's value types."""

set_field = object.__setattr__  # how an ``__init__`` sets each field once, past Frozen's guard


class Frozen:
    """Slotted value set once by ``__init__``; any later set or delete raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__
