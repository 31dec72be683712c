"""Base classes of the package's value types."""

set_field = object.__setattr__  # how an ``__init__`` sets each field once, past Frozen's guard

REQUIRED = object()  # the FIELDS default of a field every construction must give


class Frozen:
    """Slotted value set once by ``__init__``; any later set or delete raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class Record(Frozen):
    """Frozen value built over ``FIELDS``, its ordered names and defaults.

    Fields are given by position in ``FIELDS`` order or by keyword; a field
    whose default is ``REQUIRED`` must be given.  A subclass declares
    ``__slots__ = tuple(FIELDS)``.
    """

    __slots__ = ()
    FIELDS = {}

    def __init__(self, *args, **kwargs):
        kind = type(self).__name__
        if len(args) > len(self.FIELDS):
            raise TypeError(f"{kind} takes {len(self.FIELDS)} fields, got {len(args)}")
        for name, value in zip(self.FIELDS, args):
            if name in kwargs:
                raise TypeError(f"{kind} field {name!r} given twice")
            kwargs[name] = value
        if not kwargs.keys() <= self.FIELDS.keys():
            raise TypeError(f"unknown {kind} fields {sorted(kwargs.keys() - self.FIELDS.keys())}")
        for name, default in self.FIELDS.items():
            value = kwargs.get(name, default)
            if value is REQUIRED:
                raise TypeError(f"{kind} field {name!r} is required")
            set_field(self, name, value)
