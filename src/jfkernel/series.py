"""Sparse truncated Puiseux series in q = e^{2 pi i tau}.

Exponents are exact rationals (denominators 24 for eta, r^2/4m for theta
components, and whatever products create), coefficients live in Q(zeta_24).
``terms`` maps each ``Fraction`` exponent to its coefficient.  The core
class :class:`_Series` holds everything that does not depend on the shape
of a key; the two-variable series of :mod:`jfkernel.jacobi` is the same
core with (exponent, zeta-power) keys.  Inside the kernels
(:func:`_product`, :func:`div_exact`, and the heat operator and restriction
in :mod:`jfkernel.jacobi`) exponents are plain ints on the grid 1/L common
to the operands and the bound, and coefficients add up as unreduced integer
coordinate vectors over one denominator, so the field normalises once per
output term, not once per pair of input terms.

A series carries a validity bound ``valid_below``: all terms with exponent
strictly below the bound are exactly known, nothing is asserted at or above
it.  Truncation bookkeeping through arithmetic:

* add/sub:   bound = min of the two bounds;
* mul:       bound = min(a.bound + val(b), b.bound + val(a)), where val is
             the least stored exponent and val(zero) is the zero's bound;
* division:  see :func:`div_exact`.

All tau-derivatives are normalised: D = (1/2 pi i) d/dtau = q d/dq, acting
term-wise as c q^a -> a c q^a (:func:`euler_d`).  Storing hatted derivatives
keeps every identity in the package inside Q(zeta_24).
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cyclotomic import CYC24, CycNumber, _is_int, coerce24, cyclotomic_field


class ExactDivisionError(ArithmeticError):
    """Raised when a series division cannot be performed exactly."""


@dataclass(frozen=True)
class FormMeta:
    """Descriptive metadata attached to a series; never alters arithmetic.

    ``character`` is a symbolic tag such as "trivial", "omega_m",
    "omega_m_bar" or "chi*omega_m_bar"; ``kind`` is one of "modular",
    "cuspidal", "theta-component", "unchecked".  ``source`` records which
    construction produced the series.
    """

    weight: Fraction | None = None
    index: int | None = None
    level: int | None = None
    character: str | None = None
    kind: str | None = None
    source: str | None = None

    def to_json(self):
        out = {}
        if self.weight is not None:
            out["weight"] = _frac_str(Fraction(self.weight))
        if self.index is not None:
            out["index"] = self.index
        if self.level is not None:
            out["level"] = self.level
        if self.character is not None:
            out["character"] = self.character
        if self.kind is not None:
            out["kind"] = self.kind
        if self.source is not None:
            out["source"] = self.source
        return out

    @staticmethod
    def from_json(obj):
        """Decode :meth:`to_json` output; malformed input raises ValueError."""
        if obj is None:
            return None
        _expect(obj, dict, "meta")
        for key in ("index", "level"):
            if obj.get(key) is not None and not _is_int(obj[key]):
                raise ValueError(f"meta {key} must be an integer, got {obj[key]!r}")
        for key in ("character", "kind", "source"):
            if obj.get(key) is not None and not isinstance(obj[key], str):
                raise ValueError(f"meta {key} must be a string, got {obj[key]!r}")
        return FormMeta(
            weight=_json_rational(obj["weight"], "meta weight") if "weight" in obj else None,
            index=obj.get("index"),
            level=obj.get("level"),
            character=obj.get("character"),
            kind=obj.get("kind"),
            source=obj.get("source"),
        )


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- JSON input checks ---------------------------------------------------------

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _expect(x, kind, what):
    if not isinstance(x, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, got {x!r:.60}")


def _entry(obj, key, what):
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{what} has no {key!r}") from None


def _json_rational(x, what) -> Fraction:
    """An exact rational from JSON: an integer or a string "p" or "p/q"."""
    if _is_int(x):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        num, _, den = x.partition("/")
        if den and int(den) == 0:
            raise ValueError(f"{what}: zero denominator in {x!r}")
        return Fraction(int(num), int(den or 1))
    raise ValueError(f"{what} must be an integer or a string p or p/q, got {x!r}")


def _terms_json(obj, what):
    _expect(obj, dict, what)
    terms = _entry(obj, "terms", what)
    _expect(terms, list, f"{what} terms")
    for t in terms:
        _expect(t, dict, f"{what} term")
    meta = FormMeta.from_json(obj.get("meta"))
    return terms, _json_rational(_entry(obj, "valid_below", what), f"{what} valid_below"), meta


class _Series:
    """The sparse truncated series core of :class:`PuiseuxSeries` and
    :class:`~jfkernel.jacobi.JacobiSeries`.

    ``terms`` maps a key to a nonzero coefficient.  A subclass fixes the
    shape of a key, and :meth:`_qexp` gives the key's q-exponent, which is
    what ``valid_below`` bounds.  Instances are treated as immutable;
    operations return new series and never modify their arguments.

    Each subclass binds the shared operators in its own body, so that
    ``bench/tracer.py`` can wrap them per class.
    """

    __slots__ = ("terms", "valid_below", "meta")

    def __init__(self, terms, valid_below, meta: FormMeta | None = None):
        vb = Fraction(valid_below)
        key, qexp = self._key, self._qexp
        clean = {}
        for k, c in terms.items() if isinstance(terms, dict) else terms:
            k = key(k)
            if qexp(k) >= vb:
                continue
            c = coerce24(c)
            if not c.is_zero():
                clean[k] = c
        self.terms = clean
        self.valid_below = vb
        self.meta = meta

    @classmethod
    def zero(cls, valid_below, meta=None):
        return cls({}, valid_below, meta)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def val(self) -> Fraction:
        """Least stored q-exponent; for the zero series, the validity bound."""
        return min(map(self._qexp, self.terms), default=self.valid_below)

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda t: t[0])

    def with_meta(self, meta: FormMeta | None):
        return _assemble(type(self), self.terms, self.valid_below, meta)

    def truncate(self, bound):
        """Restrict to q-exponents below ``bound`` (must not exceed the bound)."""
        bound = Fraction(bound)
        if bound > self.valid_below:
            raise ValueError("cannot extend a series beyond its validity bound")
        return type(self)(self.terms, bound, self.meta)

    def _operand(self, other):
        """``other`` as a series of this class, or None."""
        return other if isinstance(other, type(self)) else None

    # -- equality -----------------------------------------------------------

    def agreement_bound(self, other) -> Fraction:
        return min(self.valid_below, other.valid_below)

    def same_below(self, other, bound=None) -> bool:
        """Term-exact agreement strictly below ``bound``.

        The default bound is the common validity bound; asking for more than
        either series knows raises.
        """
        if bound is None:
            bound = self.agreement_bound(other)
        bound = Fraction(bound)
        if bound > self.valid_below or bound > other.valid_below:
            raise ValueError("comparison bound exceeds a validity bound")
        qexp = self._qexp
        for k, c in self.terms.items():
            if qexp(k) < bound and other.terms.get(k) != c:
                return False
        for k in other.terms:
            if qexp(k) < bound and k not in self.terms:
                return False
        return True

    def first_difference(self, other, bound=None):
        """Smallest key below ``bound`` where the two series differ."""
        if bound is None:
            bound = self.agreement_bound(other)
        bound = Fraction(bound)
        for k in sorted(set(self.terms) | set(other.terms)):
            if self._qexp(k) >= bound:
                break
            if self.terms.get(k, CYC24.zero) != other.terms.get(k, CYC24.zero):
                return k
        return None

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.valid_below == other.valid_below and self.terms == other.terms

    __hash__ = None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        """Sum; self's keys first, and only sums that cancel are dropped.  A
        series whose own bound is the result's needs no filtering, and
        copying its dict reuses the stored key hashes."""
        other = self._operand(other)
        if other is None:
            return NotImplemented
        vb = min(self.valid_below, other.valid_below)
        qexp = self._qexp

        def below(s):
            if s.valid_below == vb:
                return s.terms
            return {k: c for k, c in s.terms.items() if qexp(k) < vb}

        out = dict(below(self))
        summed = []
        for k, c in below(other).items():
            n = len(out)
            s = out.setdefault(k, c)
            if len(out) == n:
                out[k] = s + c
                summed.append(k)
        for k in summed:
            if out[k].is_zero():
                del out[k]
        return _assemble(type(self), out, vb, None)

    def __sub__(self, other):
        if not isinstance(other, _Series):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _assemble(type(self), {k: -c for k, c in self.terms.items()},
                         self.valid_below, self.meta)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            if not other:
                terms = {}
            elif isinstance(other, CycNumber):
                terms = {k: c * other for k, c in self.terms.items()}
            else:
                terms = {k: c.scale(other) for k, c in self.terms.items()}
            return _assemble(type(self), terms, self.valid_below, self.meta)
        other = self._operand(other)
        if other is None:
            return NotImplemented
        vb = min(self.valid_below + other.val(), other.valid_below + self.val())
        out = _product(self._triples(), other._triples(), vb)
        return _assemble(type(self), self._from_triples(out), vb,
                         self._mul_meta(self.meta, other.meta))

    __rmul__ = __mul__

    # -- rendering ------------------------------------------------------------

    def to_text(self, max_terms: int | None = None) -> str:
        items = self.items_sorted()
        tail = ""
        if max_terms is not None and len(items) > max_terms:
            items, tail = items[:max_terms], " + ..."
        if not items:
            return "0"
        parts = [self._term_text(k, c) for k, c in items]
        text = parts[0]
        for p in parts[1:]:
            text += " - " + p[1:] if p.startswith("-") else " + " + p
        return text + tail

    def _term_text(self, key, c: CycNumber) -> str:
        mono = self._mono(key)
        cs = str(c)
        if mono and cs in ("1", "-1"):
            return cs[:-1] + mono
        if (mono or not self._bare_constant) and ("+" in cs[1:] or "-" in cs[1:] or "[" in cs):
            cs = f"({cs})"
        return f"{cs}*{mono}" if mono else cs

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {
            "valid_below": _frac_str(self.valid_below),
            "terms": [self._term_json(k, c.to_json()) for k, c in self.items_sorted()],
            "meta": self.meta.to_json() if self.meta is not None else None,
        }

    @classmethod
    def _from_json(cls, obj, what):
        """Decode :meth:`to_json` output; malformed input raises ValueError."""
        items, vb, meta = _terms_json(obj, what)
        terms = {cls._key_from_json(t): CycNumber.from_json(_entry(t, "coeff", "series term"))
                 for t in items}
        return cls(terms, vb, meta)


def _q_text(e: Fraction) -> str:
    """The monomial q^e, or "" for e = 0."""
    if e == 0:
        return ""
    if e.denominator == 1:
        return "q" if e == 1 else f"q^{e.numerator}"
    return f"q^({e.numerator}/{e.denominator})"


class PuiseuxSeries(_Series):
    """A truncated q-series with rational exponents and Q(zeta_24)
    coefficients; ``terms`` maps each ``Fraction`` exponent to its
    coefficient."""

    __slots__ = ()

    _key = Fraction
    # a constant term prints without parentheses: 1+i, not (1+i)
    _bare_constant = True
    _mono = staticmethod(_q_text)

    @staticmethod
    def _qexp(e):
        return e

    @staticmethod
    def one(valid_below, meta=None) -> "PuiseuxSeries":
        return PuiseuxSeries({Fraction(0): CYC24.one}, valid_below, meta)

    @staticmethod
    def monomial(coeff, exponent, valid_below, meta=None) -> "PuiseuxSeries":
        return PuiseuxSeries({Fraction(exponent): coeff}, valid_below, meta)

    def coeff(self, exponent) -> CycNumber:
        return self.terms.get(Fraction(exponent), CYC24.zero)

    def _triples(self):
        return [(e, 0, c) for e, c in self.terms.items()]

    @staticmethod
    def _from_triples(out):
        return {e: c for e, _r, c in out}

    @staticmethod
    def _mul_meta(a, b):
        return None

    @staticmethod
    def _term_json(e, coeff):
        return {"exp": _frac_str(e), "coeff": coeff}

    @staticmethod
    def _key_from_json(t):
        return _json_rational(_entry(t, "exp", "series term"), "term exp")

    @staticmethod
    def from_json(obj) -> "PuiseuxSeries":
        """Decode :meth:`to_json` output; malformed input raises ValueError."""
        return PuiseuxSeries._from_json(obj, "series")

    def __repr__(self):
        return f"<PuiseuxSeries {self.to_text(max_terms=6)} (below q^{self.valid_below})>"

    __str__ = _Series.to_text
    __add__ = _Series.__add__
    __sub__ = _Series.__sub__
    __neg__ = _Series.__neg__
    __mul__ = __rmul__ = _Series.__mul__
    same_below = _Series.same_below
    first_difference = _Series.first_difference
    truncate = _Series.truncate
    to_json = _Series.to_json


# ---------------------------------------------------------------------------
# Kernels shared with the two-variable series


def _assemble(cls, terms, valid_below, meta):
    """A series from terms already clean: Fraction keys below the bound,
    nonzero coefficients."""
    out = cls.__new__(cls)
    out.terms = terms
    out.valid_below = valid_below
    out.meta = meta
    return out


def _coords(*groups):
    """Coefficient groups as sparse integer coordinates in one field.

    Returns the field, which contains every coefficient, and for each group
    a common denominator D with, per coefficient, its nonzero coordinates
    [(i, v), ...] scaled to D: the coefficient is sum(v zeta^i) / D.
    """
    groups = [list(g) for g in groups]
    f = CYC24
    for g in groups:
        for c in g:
            if c.field is not f and f.n % c.field.n:
                f = cyclotomic_field(lcm(f.n, c.field.n))
    return f, [f.sparse_coords([c if c.field is f else f.embed(c) for c in g])
               for g in groups]


def _grid(e: Fraction, L: int) -> int:
    """The exponent e as an integer on the grid 1/L (L a multiple of its denominator)."""
    return e.numerator * (L // e.denominator)


def _product(a, b, vb):
    """The terms of a*b with q-exponent below ``vb``.

    ``a`` and ``b`` are lists of (q-exponent, zeta-power, coefficient); a
    one-variable series has zeta-power 0.  Exponents become ints on the grid
    1/L common to both operands and the bound, and (exponent, zeta-power)
    packs into one int key, so that a pair of terms costs an int comparison,
    an int addition and the coordinate products.  Each key accumulates
    unreduced coordinates, and the field normalises once per key.  Returns
    (exponent, zeta-power, coefficient) triples with nonzero coefficients,
    in order of the key's first occurrence over the pairs (a outer, b inner).
    """
    f, ((da, ca), (db, cb)) = _coords((c for _e, _r, c in a), (c for _e, _r, c in b))
    L = lcm(vb.denominator, *(e.denominator for e, _r, _c in a),
            *(e.denominator for e, _r, _c in b))
    # zeta-powers of a product lie in [-h, h]; a key is N*width + r
    h = max((abs(r) for _e, r, _c in a), default=0) + max((abs(r) for _e, r, _c in b), default=0)
    width = 2 * h + 1

    def keyed(terms, coords):
        grid = [_grid(e, L) for e, _r, _c in terms]
        return [(n, n * width + r, x) for n, (_e, r, _c), x in zip(grid, terms, coords)]

    A, B = keyed(a, ca), keyed(b, cb)
    top = _grid(vb, L)
    size = 2 * f.degree - 1
    sums = {}
    for na, ka, xs in A:
        lim = top - na
        for nb, kb, ys in B:
            if nb < lim:
                key = ka + kb
                acc = sums.get(key)
                if acc is None:
                    acc = sums[key] = [0] * size
                for i, x in xs:
                    for j, y in ys:
                        acc[i + j] += x * y
    den = da * db
    exps = {}
    out = []
    for key, acc in sums.items():
        c = f.element(acc, den)
        if c.is_zero():
            continue
        r = (key + h) % width - h
        n = (key - r) // width
        e = exps.get(n)
        if e is None:
            e = exps[n] = Fraction(n, L)
        out.append((e, r, c))
    return out


# ---------------------------------------------------------------------------
# Operators


def euler_d(a: PuiseuxSeries) -> PuiseuxSeries:
    """The normalised derivative D = q d/dq: c q^e -> e c q^e."""
    return _assemble(PuiseuxSeries, {e: c.scale(e) for e, c in a.terms.items() if e},
                     a.valid_below, a.meta)


def dilate(a: PuiseuxSeries, m: int) -> PuiseuxSeries:
    """Substitute tau -> m tau: every exponent (and the bound) scales by m."""
    if m < 1:
        raise ValueError("dilation factor must be a positive integer")
    return PuiseuxSeries(
        {e * m: c for e, c in a.terms.items()}, a.valid_below * m, a.meta
    )


def div_exact(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """Quotient c with c*b = a term-exactly on the inferred valid range.

    The divisor must have a nonzero leading coefficient inside its valid
    range.  The quotient bound is
    min(a.valid_below, b.valid_below + val(a) - val(b)) - val(b), which makes
    the round trip div_exact(a*b, b) = a hold term-exactly.

    Long division from the lowest term up: a heap walks the remainder's
    exponents, ints on a common grid, in increasing order.  Each remainder
    term accumulates unreduced coordinates and is normalised once, when it
    is divided by the leading coefficient.  A divisor with rational
    coefficients (the theta components) has one coordinate per term, so
    subtracting a multiple of it scales coordinates; no convolution.
    """
    if b.is_zero():
        raise ExactDivisionError("division by a series that is zero on its valid range")
    vb_b = b.val()
    vb = min(a.valid_below, b.valid_below + a.val() - vb_b) - vb_b
    tail = sorted(e for e in b.terms if e != vb_b)
    # the leading coefficient's group only takes part in choosing the field
    f, ((da, ca), (dt, ct), _) = _coords(
        a.terms.values(), (b.terms[e] for e in tail), [b.terms[vb_b]])
    lead_inv = f.embed(b.terms[vb_b]).inverse()
    L = lcm(vb.denominator, vb_b.denominator, *(e.denominator for e in a.terms),
            *(e.denominator for e in tail))
    n_lead = _grid(vb_b, L)
    # remainder exponents from here on never reach the quotient
    top = _grid(vb, L) + n_lead
    steps = [(_grid(e, L) - n_lead, y) for e, y in zip(tail, ct)]
    inv = [(i, v) for i, v in enumerate(lead_inv.num) if v]
    size = 2 * f.degree - 1
    rem = {}
    for e, xs in zip(a.terms, ca):
        n = _grid(e, L)
        if n < top:
            slot = rem[n] = [[0] * size, da]
            for i, v in xs:
                slot[0][i] = v
    heap = list(rem)
    heapq.heapify(heap)
    out = {}
    while heap:
        n = heapq.heappop(heap)
        acc, den = rem.pop(n)
        num = f._reduce(acc)
        if not any(num):
            continue
        prod = [0] * size
        for i, x in enumerate(num):
            if x:
                for j, y in inv:
                    prod[i + j] += x * y
        cq = f.element(prod, den * lead_inv.den)
        out[Fraction(n - n_lead, L)] = cq
        xq = [(i, x) for i, x in enumerate(cq.num) if x]
        dq = cq.den * dt
        for step, ys in steps:
            t = n + step
            if t >= top:
                break
            slot = rem.get(t)
            if slot is None:
                slot = rem[t] = [[0] * size, dq]
                heapq.heappush(heap, t)
            elif slot[1] % dq:
                common = lcm(slot[1], dq)
                slot[0] = [v * (common // slot[1]) for v in slot[0]]
                slot[1] = common
            s = slot[1] // dq
            acc = slot[0]
            for i, x in xq:
                for j, y in ys:
                    acc[i + j] -= x * y * s
    return _assemble(PuiseuxSeries, out, vb, None)


def eta(order) -> PuiseuxSeries:
    """Dedekind eta below ``order``, by Euler's pentagonal number theorem:
    q^{1/24} prod_{n>=1} (1 - q^n) = sum_{n>=1} chi_12(n) q^{n^2/24}, where
    chi_12(n) is 1 for n = +-1 mod 12, -1 for n = +-5 mod 12 and 0 otherwise.
    """
    order = Fraction(order)
    if order <= Fraction(1, 24):
        raise ValueError("order must exceed 1/24")
    terms = {}
    n = 1
    while n * n < 24 * order:
        if n % 12 in (1, 11):
            terms[Fraction(n * n, 24)] = CYC24.one
        elif n % 12 in (5, 7):
            terms[Fraction(n * n, 24)] = -CYC24.one
        n += 1
    meta = FormMeta(weight=Fraction(1, 2), level=1, kind="cuspidal", source="eta")
    return _assemble(PuiseuxSeries, terms, order, meta)


def eta_power(exponent: int, order) -> PuiseuxSeries:
    """eta^exponent below ``order`` (exponent >= 1)."""
    if exponent < 1:
        raise ValueError("exponent must be a positive integer")
    base = eta(Fraction(order) - Fraction(exponent - 1, 24))
    out = base
    for _ in range(exponent - 1):
        out = out * base
    return out.with_meta(
        FormMeta(weight=Fraction(exponent, 2), level=1, kind="cuspidal", source=f"eta^{exponent}")
    )
