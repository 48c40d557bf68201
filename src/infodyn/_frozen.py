"""Base class of the package's validated, immutable value types.

A subclass names its constructor arguments in ``_fields`` and every stored
attribute, cached ones included, in ``__slots__``.  Its ``__init__``
validates the arguments and stores them with :meth:`Frozen._set`; after
that the instance refuses assignment and deletion with
:class:`AttributeError`.  Equality, hashing and ``repr`` go by ``_fields``,
and :meth:`Frozen.replace` builds a changed copy through ``__init__``, so it
is validated like a new instance.  Nothing is generated at class creation,
which keeps the package's import cheap.
"""


class Frozen:
    __slots__ = ()
    _fields = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: it is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: it is frozen")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated like a new instance."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"
