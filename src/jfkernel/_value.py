"""The base of the package's small value classes (``SL2Mat``, ``GroupWord``,
``FormMeta``, ``VVPair``, ``CheckReport``), and :func:`power`, the one
square-and-multiply behind ``SL2Mat``, ``CycNumber`` and ``UMatrix`` powers."""


def power(x, e: int, mul):
    """x^e for e >= 1 by square and multiply from the first factor, with
    ``mul`` the product: x^1 is x itself, and no product is spent on an
    identity or on a last squaring."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return out
        x = mul(x, x)


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
