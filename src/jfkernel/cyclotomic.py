"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Every scalar appearing in the small-index theta-multiplier matrices lives in
Q(zeta_24): i = zeta_24^6, sqrt(i) = zeta_24^3, sqrt(2) = zeta_24^3 +
zeta_24^-3, e^{-pi i/4} = zeta_24^-3, and all the character values built from
them.  That field is the default coefficient ring of the whole package; see
:data:`CYC24` and the module-level helpers :func:`root_of_unity` /
:func:`from_rational`.

Multiplier matrices of index m need 4m-th roots of unity, so for m with
4m not dividing 24 the matrices live in Q(zeta_n) with n = lcm(24, 4m).
:func:`cyclotomic_field` returns the (cached) field of any even order,
:func:`common_field` the one several fields meet in, and
:meth:`CyclotomicField.embed` moves elements up a tower Q(zeta_a) -> Q(zeta_b)
for a | b.

Elements are stored as integer coordinate vectors over the power basis
1, zeta, ..., zeta^(phi(n)-1) with a single positive denominator, reduced so
that gcd(all numerators, denominator) = 1.  The representation is canonical:
equal field elements have identical coordinates.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending, monic) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("order must be positive")
    # x^n - 1 divided by Phi_d for every proper divisor d of n.
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divexact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _poly_divexact(a: list[int], b: list[int]) -> list[int]:
    # Exact division of integer polynomials, b monic.
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = a[k + len(b) - 1]
        out[k] = c
        if c:
            for j, bj in enumerate(b):
                a[k + j] -= c * bj
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_field(n: int) -> "CyclotomicField":
    return CyclotomicField(n)


def common_field(*fields) -> "CyclotomicField":
    """The least cyclotomic field containing every one of ``fields``: the
    lcm of their orders.  A join above MAX_JSON_ORDER that is larger than
    every operand is refused, as a field of that order read from JSON is."""
    n = lcm(*[f.n for f in fields])
    if n > MAX_JSON_ORDER and all(f.n < n for f in fields):
        raise ValueError(f"fields of orders {sorted({f.n for f in fields})} join in order {n}, "
                         f"above {MAX_JSON_ORDER}")
    return cyclotomic_field(n)


def _square_part(n: int):
    """(s, f) with n = s^2 f and f squarefree, by trial division."""
    s, f = 1, n
    p = 2
    while p * p <= f:
        while f % (p * p) == 0:
            f //= p * p
            s *= p
        p += 1
    return s, f


class CyclotomicField:
    """The field Q(zeta_n) with zeta_n = e^{2 pi i / n}.

    Construct through :func:`cyclotomic_field` so each order is built once
    and element identity checks can compare field objects directly.
    """

    def __init__(self, n: int):
        phi = cyclotomic_poly(n)
        self.n = n
        self.degree = d = len(phi) - 1
        # x^k mod Phi_n as sparse rows ((j, v), ...) of its nonzero
        # coordinates, for k up to max(n-1, 2*degree-2); the upper range
        # covers products of two reduced elements.  Phi is monic, so
        # x^degree = -sum(phi[j] x^j, j < degree).
        rows = []
        v = [1] + [0] * (d - 1)
        for _ in range(max(n, 2 * d - 1)):
            rows.append(tuple((j, c) for j, c in enumerate(v) if c))
            lead = v[-1]
            v = [0] + v[:-1]
            if lead:
                for j in range(d):
                    v[j] -= lead * phi[j]
        self._rows = rows
        self._roots = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
        self.zero = CycNumber(self, (0,) * self.degree, 1)
        self.one = CycNumber(self, (1,) + (0,) * (self.degree - 1), 1)

    def __repr__(self):
        return f"CyclotomicField({self.n})"

    def element(self, num, den=1) -> "CycNumber":
        """Element with the given numerator vector and denominator."""
        d = self.degree
        if len(num) > d:
            num = self._reduce(num)
        elif len(num) < d:
            num = [*num, *[0] * (d - len(num))]
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        # one gcd over all coordinates; a negative g also makes den positive
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den //= g
        return CycNumber(self, tuple(num), den)

    def _reduce(self, coeffs) -> list[int]:
        """coeffs (a vector over 1, zeta, zeta^2, ..., at least degree long)
        reduced mod Phi_n: each nonzero coordinate past the degree adds its
        sparse row."""
        d, rows = self.degree, self._rows
        out = list(coeffs[:d])
        for k in range(d, len(coeffs)):
            c = coeffs[k]
            if c:
                for j, v in rows[k]:
                    out[j] += c * v
        return out

    # -- sparse coordinates -------------------------------------------------
    # The kernels of jfkernel.series and jfkernel.weil hold a value as the
    # tuple of its nonzero coordinates (i, v), ascending in i, over a
    # denominator they keep apart; () is zero.

    def _nonzero(self, acc) -> tuple:
        """The nonzero coordinates of an unreduced int list over 1, zeta,
        zeta^2, ...: reduced mod Phi_n when it is longer than the degree."""
        if len(acc) > self.degree:
            acc = self._reduce(acc)
        return tuple([(i, v) for i, v in enumerate(acc) if v])

    def _lift(self, xs, step) -> tuple:
        """Coordinates ``xs`` of an element of Q(zeta_{n/step}) as coordinates
        here: zeta_{n/step}^i is zeta^{i step}, reduced mod Phi_n.  The content
        of the coordinates does not change, since 1 is part of a basis of
        Z[zeta_n] over Z[zeta_{n/step}]."""
        if step == 1:
            return xs
        acc = [0] * self.degree
        rows = self._rows
        for i, v in xs:
            for j, w in rows[i * step]:
                acc[j] += v * w
        return self._nonzero(acc)

    def _element(self, xs, den) -> "CycNumber":
        """The element with coordinates ``xs`` over ``den``, normalised."""
        num = [0] * self.degree
        for i, v in xs:
            num[i] = v
        return self.element(num, den)

    def zeta(self, k: int = 1) -> "CycNumber":
        """The root of unity zeta_n^k."""
        num = [0] * self.degree
        for j, v in self._rows[k % self.n]:
            num[j] = v
        return CycNumber(self, tuple(num), 1)

    def from_fraction(self, q) -> "CycNumber":
        q = Fraction(q)
        return self.element([q.numerator], q.denominator)

    def embed(self, x: "CycNumber") -> "CycNumber":
        """Map an element of Q(zeta_a) into this field, for a | n."""
        if x.field is self:
            return x
        if self.n % x.field.n:
            raise ValueError(f"no embedding Q(zeta_{x.field.n}) -> Q(zeta_{self.n})")
        step = self.n // x.field.n
        num = [0] * (step * (x.field.degree - 1) + 1)
        num[::step] = x.num
        return self.element(num, x.den)

    def sqrt_int(self, d: int) -> "CycNumber":
        """Exact square root of a positive squarefree integer, via Gauss sums.

        Requires 8 | n for the factor sqrt(2) and p | n for each odd prime
        p | d.
        """
        if d <= 0 or _square_part(d)[0] != 1:
            raise ValueError("need a positive squarefree integer")
        out = self.one
        if d % 2 == 0:
            if self.n % 8:
                raise ValueError(f"sqrt(2) not in Q(zeta_{self.n})")
            out = out * (self.zeta(self.n // 8) + self.zeta(-self.n // 8))
            d //= 2
        p = 3
        while d > 1:
            if d % p == 0:
                d //= p
                if self.n % p:
                    raise ValueError(f"sqrt({p}) not in Q(zeta_{self.n})")
                g = sum((self.zeta(self.n // p * a * a) for a in range(p)), self.zero)
                if p % 4 == 3:
                    # Gauss sum equals i*sqrt(p); divide out i.
                    g = g * self.zeta(-self.n // 4)
                out = out * g
            p += 2
        return out


class CycNumber:
    """An element of a fixed cyclotomic field, in canonical coordinates;
    :meth:`CyclotomicField.element` normalises, the constructor does not."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def is_gaussian(self) -> bool:
        """True when the element lies in Q(i) = Q + Q*zeta_n^{n/4}."""
        j4 = self.field.n // 4
        return all(c == 0 for k, c in enumerate(self.num) if k not in (0, j4))

    # -- arithmetic -------------------------------------------------------

    def _pair(self, other):
        """Lift self and other into a common field; None when not coercible.
        An element is tested for first: the test against ``Fraction`` goes
        through ``ABCMeta`` and costs more than the rest of the call."""
        if other.__class__ is not CycNumber:
            if isinstance(other, (int, Fraction)):
                return self, self.field.from_fraction(other)
            if not isinstance(other, CycNumber):
                return None
        if other.field is self.field:
            return self, other
        big = common_field(self.field, other.field)
        return big.embed(self), big.embed(other)

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.den == b.den:
            return a.field.element([x + y for x, y in zip(a.num, b.num)], a.den)
        return a.field.element(
            [x * b.den + y * a.den for x, y in zip(a.num, b.num)], a.den * b.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return CycNumber(self.field, tuple(-c for c in self.num), self.den)

    def scale(self, q) -> "CycNumber":
        """self * q for an int or Fraction q: scales the coordinates, with no
        convolution or reduction."""
        return self.field.element([c * q.numerator for c in self.num], self.den * q.denominator)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, o = pair
        f = x.field
        bs = [(j, bj) for j, bj in enumerate(o.num) if bj]
        conv = [0] * (2 * f.degree - 1)
        for i, ai in enumerate(x.num):
            if ai:
                for j, bj in bs:
                    conv[i + j] += ai * bj
        return f.element(conv, x.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """1/x = rest/N(x): rest is the product of the Galois conjugates
        sigma_k(x) over the units k != 1 mod n, and the norm N(x) = x * rest
        is rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        if self.is_rational():
            return f.element([self.den], self.num[0])
        rest = f.one
        for k in range(2, f.n):
            if gcd(k, f.n) == 1:
                rest = rest * self.galois(k)
        return rest.scale(1 / (self * rest).rational_value())

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b * a.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def galois(self, k: int) -> "CycNumber":
        """The Galois automorphism zeta -> zeta^k, for k a unit mod n."""
        f = self.field
        out = [0] * f.n
        for j, c in enumerate(self.num):
            out[j * k % f.n] += c
        return f.element(out, self.den)

    def conj(self) -> "CycNumber":
        """Complex conjugation zeta -> zeta^{-1}."""
        return self.galois(-1)

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.num == b.num and a.den == b.den

    # Cross-field equality makes a consistent hash awkward; these values are
    # never used as dict keys, so hashing is disabled outright.
    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    # -- embeddings ---------------------------------------------------------

    def to_complex(self) -> complex:
        """Numeric value under zeta_n = e^{2 pi i / n}."""
        roots = self.field._roots
        return sum((c * roots[j] for j, c in enumerate(self.num) if c), 0j) / self.den

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        # Shortest of: integer, fraction, Gaussian a+bi, coordinate vector.
        if self.is_rational():
            q = self.rational_value()
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        if self.is_gaussian():
            j4 = self.field.n // 4
            re = Fraction(self.num[0], self.den)
            im = Fraction(self.num[j4], self.den)
            rs = "" if re == 0 else str(re)
            sign = "-" if im < 0 else ("+" if rs else "")
            mag = abs(im)
            ims = "i" if mag == 1 else f"{mag}*i"
            return f"{rs}{sign}{ims}"
        body = ",".join(str(c) for c in self.num)
        return f"cyc{self.field.n}[{body}]/{self.den}" if self.den != 1 else f"cyc{self.field.n}[{body}]"

    def __repr__(self):
        return f"<{self} in Q(zeta_{self.field.n})>"

    # -- serialization -------------------------------------------------------

    def to_json(self):
        """Canonical encoding {"num": [...], "den": d}; gcd(nums, den) = 1."""
        obj = {"num": list(self.num), "den": self.den}
        if self.field.n != 24:
            obj["order"] = self.field.n
        return obj

    @staticmethod
    def from_json(obj) -> "CycNumber":
        """Decode :meth:`to_json` output; malformed input raises ValueError."""
        field, num, den = _json_number(obj)
        return field.element(num, den)


def _json_number(obj):
    """The field, numerator list and nonzero denominator of a coefficient in
    the JSON form of :meth:`CycNumber.to_json`, checked but not normalised;
    malformed input raises ValueError.

    Field orders above MAX_JSON_ORDER are refused: the field's tables grow
    as order times degree.
    """
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise ValueError(f"coefficient must be an object with num and den, got {obj!r:.60}")
    n, num, den = obj.get("order", 24), obj["num"], obj["den"]
    if not _is_int(n) or not 1 <= n <= MAX_JSON_ORDER:
        raise ValueError(f"coefficient order must be an integer in 1..{MAX_JSON_ORDER}, got {n!r}")
    field = cyclotomic_field(n)
    if not isinstance(num, list) or len(num) > field.degree or not all(map(_is_int, num)):
        raise ValueError(
            f"coefficient num must be a list of at most {field.degree} integers, got {num!r:.60}")
    if not _is_int(den) or den == 0:
        raise ValueError(f"coefficient den must be a nonzero integer, got {den!r}")
    return field, num, den


MAX_JSON_ORDER = 1000


def _is_int(x) -> bool:
    """An int from JSON: bools (an int subclass) are not."""
    return type(x) is int


# ---------------------------------------------------------------------------
# The default coefficient field Q(zeta_24).

CYC24 = cyclotomic_field(24)


def root_of_unity(k: int) -> CycNumber:
    """zeta_24^k in canonical coordinates."""
    return CYC24.zeta(k)


def from_rational(q) -> CycNumber:
    return CYC24.from_fraction(q)


def imag_unit() -> CycNumber:
    return CYC24.zeta(6)


def coerce24(x) -> CycNumber:
    """Coerce an int, Fraction, or CycNumber into Q(zeta_24)."""
    if isinstance(x, CycNumber):
        return x
    return CYC24.from_fraction(x)
