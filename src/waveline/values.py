"""Base class of the package's value types."""

import copyreg

set_field = object.__setattr__  # how an ``__init__`` sets each field once, past Frozen's guard


class Frozen:
    """Slotted value set once by ``__init__``; any later set or delete raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    # copy, deepcopy and pickle rebuild the fields as they are, past the
    # guard: __init__ would validate again, and not every field is its argument
    def __reduce__(self):
        cls = type(self)
        return copyreg.__newobj__, (cls,), tuple(getattr(self, name) for name in cls.__slots__)

    def __setstate__(self, fields):
        for name, value in zip(type(self).__slots__, fields):
            set_field(self, name, value)
