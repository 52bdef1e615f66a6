"""The base of the package's small value classes (``SL2Mat``, ``GroupWord``,
``FormMeta``, ``VVPair``, ``CheckReport``)."""


class Value:
    """Fields named in ``__slots__``, set by the constructor and treated as
    immutable, with the ``==``, hash and repr of a frozen dataclass: equal
    when of the same class with equal fields, hashed as the tuple of the
    fields, shown as ``Name(field=value, ...)``."""

    __slots__ = ()

    def _fields(self):
        return tuple([getattr(self, k) for k in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join([f"{k}={getattr(self, k)!r}" for k in self.__slots__])
        return f"{type(self).__qualname__}({fields})"
