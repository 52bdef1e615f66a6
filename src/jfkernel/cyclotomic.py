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

Elements hold the ascending tuple of their nonzero integer coordinates (i, v)
over the power basis 1, zeta, ..., zeta^(phi(n)-1), as the series and Weil
kernels do, over one positive denominator with gcd(all coordinates,
denominator) = 1.  Equal field elements have identical coordinates.
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd, isqrt, lcm, prod

from ._value import power


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending, monic) of the n-th cyclotomic polynomial.

    Cached for the orders of the fields built, which :func:`cyclotomic_field`
    keeps for the life of the process, and for their divisors, as each
    polynomial is built from its divisors' polynomials."""
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
    """The one field of order n, never evicted: fields are compared by
    identity, so an order must map to one instance for the life of the
    process."""
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


def _factor(n: int, bound: int | None = None) -> list[tuple[int, int]]:
    """The prime factorisation of n, [] for n <= 1: ascending (p, e) pairs,
    by trial division that stops at the square root of what is left, or
    past ``bound``: what is left then must be a square r^2, the last pair
    (r, 2) with r not necessarily prime, and anything else raises ValueError."""
    out, p, rest = [], 2, n
    while p * p <= rest and (bound is None or p <= bound):
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if p * p <= rest:
        r = isqrt(rest)
        if r * r != rest:
            raise ValueError(f"{n} leaves {rest} after the primes up to {bound}, not a square")
        out.append((r, 2))
    elif rest > 1:
        out.append((rest, 1))
    return out


def _square_part(n: int, bound: int | None = None):
    """(s, f) with n = s^2 f and f squarefree, through :func:`_factor`."""
    s = prod([p ** (e // 2) for p, e in _factor(n, bound)])
    return s, n // (s * s)


def _sqrt_order(d: int) -> int:
    """The conductor of Q(sqrt(d)), d squarefree: the least n with sqrt(d)
    in Q(zeta_n), d for d = 1 mod 4 and 4d otherwise."""
    return d if d % 4 == 1 else 4 * d


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
        self.zero = CycNumber(self, (), 1)
        self.one = CycNumber(self, ((0, 1),), 1)

    def __repr__(self):
        return f"CyclotomicField({self.n})"

    def element(self, num, den=1) -> "CycNumber":
        """Element with the given numerator vector and denominator."""
        return self._element(self._nonzero(num), den)

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
    # An element, and each value in the kernels of jfkernel.series and
    # jfkernel.weil, is the tuple of its nonzero coordinates (i, v),
    # ascending in i, over a denominator kept apart; () is zero.  The
    # layout's helpers: _times below, and _scaled, _dense and _content.

    def _nonzero(self, acc) -> tuple:
        """The nonzero coordinates of an unreduced int list over 1, zeta,
        zeta^2, ...: reduced mod Phi_n when it is longer than the degree."""
        if len(acc) > self.degree:
            acc = self._reduce(acc)
        return tuple([(i, v) for i, v in enumerate(acc) if v])

    def _map(self, xs, k=1, shift=0) -> tuple:
        """The one coordinate map: zeta^i -> zeta^(k i + shift) here, through
        the sparse rows.  It lifts ``xs`` from Q(zeta_{n/k}), or is the Galois
        action of a unit k, times zeta^shift.  Neither changes the content of
        the coordinates, so their denominator stays."""
        if not xs or (k == 1 and not shift):
            return xs
        n, rows = self.n, self._rows
        acc = [0] * self.degree
        for i, v in xs:
            for j, w in rows[(k * i + shift) % n]:
                acc[j] += v * w
        return self._nonzero(acc)

    def _times(self, xs, ys) -> tuple:
        """The reduced product of the coordinates ``xs`` and ``ys``, as the
        series product accumulates it: in a list as wide as the highest index
        of ``xs`` plus that of ``ys``, plus one, reduced mod Phi_n only when it
        is wider than the degree, so a rational operand costs no reduction."""
        if not (xs and ys):
            return ()
        acc = [0] * (xs[-1][0] + ys[-1][0] + 1)
        for i, a in xs:
            for j, b in ys:
                acc[i + j] += a * b
        return self._nonzero(acc)

    def _element(self, xs, den) -> "CycNumber":
        """The element with coordinates ``xs`` over ``den``, normalised: one
        gcd over the denominator and the coordinates."""
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        g = gcd(den, *[v for _i, v in xs])
        # a negative g also makes den positive
        if den < 0:
            g = -g
        if g != 1:
            xs = tuple([(i, v // g) for i, v in xs])
            den //= g
        return CycNumber(self, xs, den)

    def _json(self, xs, den):
        """:meth:`CycNumber.to_json` of the coordinates ``xs`` over ``den`` > 0,
        in lowest terms: one gcd over the denominator and the coordinates."""
        num = _dense(xs, self.degree)
        g = gcd(den, *num)
        if g != 1:
            num = [v // g for v in num]
            den //= g
        return ({"num": num, "den": den} if self.n == 24
                else {"num": num, "den": den, "order": self.n})

    def zeta(self, k: int = 1) -> "CycNumber":
        """The root of unity zeta_n^k."""
        return CycNumber(self, self._rows[k % self.n], 1)

    def from_fraction(self, q) -> "CycNumber":
        q = Fraction(q)
        return CycNumber(self, ((0, q.numerator),) if q else (), q.denominator)

    def embed(self, x: "CycNumber") -> "CycNumber":
        """Map an element of Q(zeta_a) into this field, for a | n."""
        if x.field is self:
            return x
        if self.n % x.field.n:
            raise ValueError(f"no embedding Q(zeta_{x.field.n}) -> Q(zeta_{self.n})")
        return CycNumber(self, self._map(x.xs, self.n // x.field.n), x.den)

    def sqrt_int(self, d: int) -> "CycNumber":
        """Exact square root of a positive squarefree integer, via Gauss sums;
        in Q(zeta_n) exactly when its conductor :func:`_sqrt_order` divides n.

        d is factored by the primes up to n only, as every prime of an
        admissible d divides n.  What is left past them, when it is not a
        square, has a prime that does not divide n: d is refused as not in
        the field, or as not squarefree when the square of a prime up to n
        divides it.  The Gauss sum of a p = 3 mod 4 is i sqrt(p), so t such
        primes give i^t sqrt(d).
        """
        if d <= 0:
            raise ValueError("need a positive squarefree integer")
        try:
            primes = _factor(d, self.n)
        except ValueError:
            primes = [(p, 2) for p in range(2, self.n + 1) if d % (p * p) == 0]
            if not primes:
                raise ValueError(f"sqrt({d}) not in Q(zeta_{self.n})") from None
        if any(e > 1 for _p, e in primes):
            raise ValueError("need a positive squarefree integer")
        if self.n % _sqrt_order(d):
            raise ValueError(f"sqrt({d}) not in Q(zeta_{self.n})")
        out, t = self.one, 0
        for p, _e in primes:
            if p == 2:
                out = out * (self.zeta(self.n // 8) + self.zeta(-self.n // 8))
            else:
                out = out * sum((self.zeta(self.n // p * a * a) for a in range(p)), self.zero)
                t += p % 4 == 3
        # divide out i^t; 4 | n when t is odd
        return out * (self.zeta(-t * self.n // 4) if t % 2 else (-1) ** (t // 2))


def _scaled(xs, s) -> tuple:
    """Coordinates multiplied by the int s."""
    return tuple([(i, v * s) for i, v in xs])


def _dense(xs, size) -> list:
    """Coordinates ``xs`` as a list of ``size`` ints."""
    acc = [0] * size
    for i, v in xs:
        acc[i] = v
    return acc


def _content(g, tuples) -> int:
    """The gcd of ``g`` and every coordinate in ``tuples``; stops at 1."""
    for xs in tuples:
        if g == 1:
            break
        g = gcd(g, *[v for _i, v in xs])
    return g


def _lifted(formula):
    """A binary operator of :class:`CycNumber`: ``formula`` on the operands
    lifted into one field by :meth:`CycNumber._pair`, self first, or
    NotImplemented for an operand that does not coerce."""
    @wraps(formula)
    def op(self, other):
        pair = self._pair(other)
        return NotImplemented if pair is None else formula(*pair)
    return op


class CycNumber:
    """An element of a fixed cyclotomic field: its coordinates ``xs`` over
    ``den``; :meth:`CyclotomicField._element` normalises, the constructor
    does not.  ``num`` is a dense view, built on each access."""

    __slots__ = ("field", "xs", "den")

    def __init__(self, field, xs, den):
        self.field = field
        self.xs = xs
        self.den = den

    @property
    def num(self) -> tuple:
        """The coordinates over 1, zeta, ..., zeta^(degree-1), zeros included."""
        return tuple(_dense(self.xs, self.field.degree))

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.xs

    def is_rational(self) -> bool:
        xs = self.xs
        return not xs or (len(xs) == 1 and not xs[0][0])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.xs[0][1] if self.xs else 0, self.den)

    def _gaussian_parts(self):
        """The rationals (a, b) with self = a + b*i, or None off Q(i): with
        4 | n and iota = zeta_n^{n/4}, a = (x + conj x)/2 and
        b = (conj x - x)*iota/2, both rational exactly when x is in Q(i)."""
        f = self.field
        if not f.n % 4:
            c = self.conj()
            a = (self + c).scale(Fraction(1, 2))
            b = ((c - self) * f.zeta(f.n // 4)).scale(Fraction(1, 2))
            if a.is_rational() and b.is_rational():
                return a.rational_value(), b.rational_value()
        return None

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

    @_lifted
    def __add__(a, b):
        f = a.field
        sa, sb = (1, 1) if a.den == b.den else (b.den, a.den)
        acc = [0] * f.degree
        for i, v in a.xs:
            acc[i] = v * sa
        for i, v in b.xs:
            acc[i] += v * sb
        return f._element(f._nonzero(acc), a.den * sa)

    __radd__ = __add__

    @_lifted
    def __sub__(a, b):
        return a + (-b)

    @_lifted
    def __rsub__(a, b):
        return b - a

    def __neg__(self):
        return CycNumber(self.field, _scaled(self.xs, -1), self.den)

    def scale(self, q) -> "CycNumber":
        """self * q for an int or Fraction q: scales the coordinates, with no
        convolution or reduction."""
        return self.field._element(_scaled(self.xs, q.numerator) if q else (),
                                   self.den * q.denominator)

    @_lifted
    def __mul__(a, b):
        return a.field._element(a.field._times(a.xs, b.xs), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """1/x = rest/N(x): rest is the product of the Galois conjugates
        sigma_k(x) over the units k != 1 mod n, and the norm N(x) = x * rest
        is rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        if self.is_rational():
            return f._element(((0, self.den),), self.xs[0][1])
        rest = f.one
        for k in range(2, f.n):
            if gcd(k, f.n) == 1:
                rest = rest * self.galois(k)
        return rest.scale(1 / (self * rest).rational_value())

    @_lifted
    def __truediv__(a, b):
        return a * b.inverse()

    @_lifted
    def __rtruediv__(a, b):
        return b * a.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, operator.mul) if e else self.field.one

    def galois(self, k: int) -> "CycNumber":
        """The Galois automorphism zeta -> zeta^k, for k a unit mod n."""
        return CycNumber(self.field, self.field._map(self.xs, k), self.den)

    def conj(self) -> "CycNumber":
        """Complex conjugation zeta -> zeta^{-1}."""
        return self.galois(-1)

    # -- comparisons / hashing --------------------------------------------

    @_lifted
    def __eq__(a, b):
        return a.xs == b.xs and a.den == b.den

    # Cross-field equality makes a consistent hash awkward; these values are
    # never used as dict keys, so hashing is disabled outright.
    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    # -- embeddings ---------------------------------------------------------

    def to_complex(self) -> complex:
        """Numeric value under zeta_n = e^{2 pi i / n}."""
        roots = self.field._roots
        return sum((v * roots[i] for i, v in self.xs), 0j) / self.den

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        # Shortest of: integer, fraction, Gaussian a+bi, coordinate vector.
        if self.is_rational():
            q = self.rational_value()
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        parts = self._gaussian_parts()
        if parts is not None:
            re, im = parts
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
        return self.field._json(self.xs, self.den)

    @staticmethod
    def from_json(obj) -> "CycNumber":
        """Decode :meth:`to_json` output; malformed input raises ValueError."""
        field, xs, den = _json_number(obj)
        return field._element(xs, den)


def _json_number(obj):
    """The field, nonzero coordinates (i, v) and nonzero denominator of a
    coefficient in the JSON form of :meth:`CycNumber.to_json`, checked but
    not normalised; malformed input raises ValueError.

    Field orders above MAX_JSON_ORDER are refused: the field's tables grow
    as order times degree.
    """
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise ValueError(f"coefficient must be an object with num and den, got {obj!r:.60}")
    n, num, den = obj.get("order", 24), obj["num"], obj["den"]
    if not _is_int(n) or not 1 <= n <= MAX_JSON_ORDER:
        raise ValueError(f"coefficient order must be an integer in 1..{MAX_JSON_ORDER}, got {n!r}")
    field = cyclotomic_field(n)
    if not isinstance(num, list) or len(num) > field.degree or not set(map(type, num)) <= {int}:
        raise ValueError(
            f"coefficient num must be a list of at most {field.degree} integers, got {num!r:.60}")
    if not _is_int(den) or den == 0:
        raise ValueError(f"coefficient den must be a nonzero integer, got {den!r}")
    return field, tuple([(i, v) for i, v in enumerate(num) if v]), den


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
