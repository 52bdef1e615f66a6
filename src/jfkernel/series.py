"""Sparse truncated Puiseux series in q = e^{2 pi i tau}.

Exponents are exact rationals (denominators 24 for eta, r^2/4m for theta
components, and whatever products create), coefficients live in Q(zeta_24)
or a larger cyclotomic field.  A series stores each exponent as an int N on
its own grid 1/``den`` (24 for eta, 4m for theta components, the lcm of the
operands' grids for a product or sum).  It stores its coefficients in one
field, ``field``, over one positive coefficient denominator ``cden``: a key
maps to the tuple of its nonzero integer coordinates (i, v), ascending in i,
and the coefficient is sum(v zeta^i) / cden, with gcd(cden, every v) = 1.
That form is canonical, so two coefficients of one series are equal exactly
when their tuples are.  ``Fraction`` and :class:`CycNumber` appear only at
the edge: the constructor, ``coeff``, ``terms`` (a Fraction-keyed view of
CycNumbers), ``first_difference`` and text.  JSON is written from and read
into the tuples at the cost of the distinct coefficients, which a series
mostly repeats: one writer, ``to_json_text``, encodes each distinct
coefficient once and is what the CLI prints, ``to_json`` is its parse, and
the reader checks each distinct coefficient once and :func:`_build` lifts it
once.  The core class
:class:`_Series` holds everything that does not depend on the shape of a
key; the two-variable series of :mod:`jfkernel.jacobi` is the same core with
(exponent, zeta-power) keys.  The kernels (:func:`_product`,
:func:`div_exact`, and the heat operator and restriction in
:mod:`jfkernel.jacobi`) add up unreduced integer coordinates and write the
result's tuples directly; a series divides out its denominator's common
factor with one running gcd, and a product by an int k only its gcd with k.
Division by an integer multiple of a monic series over Z (a theta component)
runs in int remainders, one coordinate index at a time.

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
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import itemgetter
from types import MappingProxyType

from ._value import Value
from .cyclotomic import (CYC24, CycNumber, _content, _dense, _is_int, _json_number, _scaled,
                         coerce24, common_field)


class ExactDivisionError(ArithmeticError):
    """Raised when a series division cannot be performed exactly."""


class FormMeta(Value):
    """Descriptive metadata attached to a series; never alters arithmetic.

    ``weight`` is a ``Fraction``, ``index`` and ``level`` are ints;
    ``character`` is a symbolic tag such as "trivial", "omega_m",
    "omega_m_bar" or "chi*omega_m_bar"; ``kind`` is one of "modular",
    "cuspidal", "theta-component", "unchecked".  ``source`` records which
    construction produced the series.  Each field may be None.
    """

    __slots__ = ("weight", "index", "level", "character", "kind", "source")

    def __init__(self, weight=None, index=None, level=None, character=None, kind=None,
                 source=None):
        self.weight, self.index, self.level = weight, index, level
        self.character, self.kind, self.source = character, kind, source

    def to_json(self):
        """The fields that are not None, in slot order."""
        out = {k: v for k, v in zip(self.__slots__, self._fields()) if v is not None}
        if "weight" in out:
            out["weight"] = _frac_str(*Fraction(out["weight"]).as_integer_ratio())
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


def _frac_str(n: int, d: int) -> str:
    """n/d, for d > 0, in lowest terms: "p/q", or "p" when it is an integer."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


# -- JSON input checks ---------------------------------------------------------

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# the types of a coefficient's den, order and num entries when it may be
# found again in a series' reader
_INT = {int}


def _expect(x, kind, what):
    if not isinstance(x, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, got {x!r:.60}")


def _entry(obj, key, what):
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{what} has no {key!r}") from None


def _json_ratio(x, what) -> tuple[int, int]:
    """An exact rational from JSON, an integer or a string "p" or "p/q", as
    the ints (p, q)."""
    if _is_int(x):
        return x, 1
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        num, _, den = x.partition("/")
        if den and int(den) == 0:
            raise ValueError(f"{what}: zero denominator in {x!r}")
        return int(num), int(den or 1)
    raise ValueError(f"{what} must be an integer or a string p or p/q, got {x!r}")


def _json_rational(x, what) -> Fraction:
    return Fraction(*_json_ratio(x, what))


def _terms_json(obj, what):
    _expect(obj, dict, what)
    terms = _entry(obj, "terms", what)
    _expect(terms, list, f"{what} terms")
    where = f"{what} term"
    for t in terms:
        _expect(t, dict, where)
    meta = FormMeta.from_json(obj.get("meta"))
    return terms, _json_rational(_entry(obj, "valid_below", what), f"{what} valid_below"), meta


def _top(bound: Fraction, den: int) -> int:
    """The least int N with N/den >= bound: a grid key N/den lies below
    ``bound`` exactly when N < _top(bound, den)."""
    return -(-bound.numerator * den // bound.denominator)


class _Series:
    """The sparse truncated series core of :class:`PuiseuxSeries` and
    :class:`~jfkernel.jacobi.JacobiSeries`.

    ``_terms`` maps a key to the nonempty tuple of its coefficient's nonzero
    coordinates (i, v) in ``field``, over the series' denominator ``cden``.
    The key's q-exponent, :meth:`_qexp`, is an int N on the grid 1/``den``:
    the exponent is N/den.  A subclass fixes the rest of a key, and
    :meth:`_with_q` puts a new q-part into one.  ``den`` is any common
    denominator of the exponents, not necessarily the least, so ``==``,
    :meth:`same_below` and :meth:`first_difference` compare on the lcm of the
    two grids.  ``terms`` is the same mapping keyed by ``Fraction``
    exponents with :class:`CycNumber` values, built on each access for
    callers; no kernel reads it.  Instances are treated as immutable;
    operations return new series and never modify their arguments.

    Each subclass binds the shared operators in its own body, so that
    ``bench/tracer.py`` can wrap them per class.
    """

    __slots__ = ("_terms", "den", "valid_below", "meta", "field", "cden")

    def __new__(cls, terms, valid_below, meta: FormMeta | None = None):
        """Terms keyed by a ``Fraction`` q-exponent (or a subclass's key), with
        ``CycNumber``, int or ``Fraction`` coefficients."""
        key, qexp, with_q = cls._key, cls._qexp, cls._with_q
        pairs = []
        for k, c in terms.items():
            k = key(k)
            c = coerce24(c)
            pairs.append((with_q(k, qexp(k).as_integer_ratio()), (c.field, c.xs, c.den)))
        return _build(cls, pairs, Fraction(valid_below), meta)

    @classmethod
    def zero(cls, valid_below, meta=None):
        return cls({}, valid_below, meta)

    # -- structure ----------------------------------------------------------

    @property
    def terms(self):
        """The terms keyed by ``Fraction`` q-exponents, in storage order."""
        den, qexp, with_q = self.den, self._qexp, self._with_q
        field, cden = self.field, self.cden
        return MappingProxyType({with_q(k, Fraction(qexp(k), den)): field._element(xs, cden)
                                 for k, xs in self._terms.items()})

    def _coeff(self, key) -> CycNumber:
        xs = self._terms.get(key)
        return CYC24.zero if xs is None else self.field._element(xs, self.cden)

    def is_zero(self) -> bool:
        return not self._terms

    def val(self) -> Fraction:
        """Least stored q-exponent; for the zero series, the validity bound."""
        if not self._terms:
            return self.valid_below
        return Fraction(self._qexp(min(self._terms)), self.den)

    def _index(self, exponent):
        """The grid int of a q-exponent, or None when it is off the grid."""
        x = Fraction(exponent) * self.den
        return x.numerator if x.denominator == 1 else None

    def _on_grid(self, den, field):
        """The int-keyed terms on the grid 1/den, a multiple of ``self.den``,
        with coordinates in ``field``, which contains ``self.field``."""
        terms = self._terms
        if field is not self.field:
            step = field.n // self.field.n
            terms = {k: field._map(xs, step) for k, xs in terms.items()}
        if den == self.den:
            return terms
        f = den // self.den
        qexp, with_q = self._qexp, self._with_q
        return {with_q(k, qexp(k) * f): xs for k, xs in terms.items()}

    def with_meta(self, meta: FormMeta | None):
        return _assemble(type(self), self._terms, self.den, self.valid_below, meta,
                         self.field, self.cden)

    def truncate(self, bound):
        """Restrict to q-exponents below ``bound`` (must not exceed the bound)."""
        bound = Fraction(bound)
        if bound > self.valid_below:
            raise ValueError("cannot extend a series beyond its validity bound")
        top, qexp = _top(bound, self.den), self._qexp
        return _normalised(type(self), {k: xs for k, xs in self._terms.items() if qexp(k) < top},
                           self.den, bound, self.meta, self.field, self.cden)

    def _operand(self, other):
        """``other`` as a series of this class, or None."""
        return other if isinstance(other, type(self)) else None

    # -- equality -----------------------------------------------------------

    def same_below(self, other, bound=None) -> bool:
        """Term-exact agreement strictly below ``bound``: no
        :meth:`first_difference` there, with its default and refusal."""
        return self.first_difference(other, bound) is None

    def first_difference(self, other, bound=None):
        """Smallest key below ``bound`` where the two series differ, with its
        q-exponent as a ``Fraction``.  The default bound is the lesser
        validity bound; asking for more than either series knows raises.
        Coordinates x over D_a and y over D_b are the same coefficient when
        x D_b = y D_a."""
        bound = min(self.valid_below, other.valid_below) if bound is None else Fraction(bound)
        if bound > self.valid_below or bound > other.valid_below:
            raise ValueError("comparison bound exceeds a validity bound")
        den = lcm(self.den, other.den)
        field = common_field(self.field, other.field)
        a, b = self._on_grid(den, field), other._on_grid(den, field)
        da, db = self.cden, other.cden
        top, qexp = _top(bound, den), self._qexp
        for k in sorted(set(a) | set(b)):
            if qexp(k) >= top:
                break
            x, y = a.get(k, ()), b.get(k, ())
            if x != y if da == db else _scaled(x, db) != _scaled(y, da):
                return self._with_q(k, Fraction(qexp(k), den))
        return None

    def __eq__(self, other):
        """The same bound, and no difference below it."""
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.valid_below == other.valid_below and self.first_difference(other) is None

    __hash__ = None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        """The sum in one pass: ``self``'s keys first, and only sums that
        cancel are dropped; the bound is the lesser bound.  An operand with
        no term below it does not widen the field or denominator."""
        other = self._operand(other)
        if other is None:
            return NotImplemented
        vb = min(self.valid_below, other.valid_below)
        den = lcm(self.den, other.den)
        top, qexp = _top(vb, den), self._qexp
        parts = [s for s in (self, other) if s.val() < vb]
        field = _join(s.field for s in parts)
        cden = lcm(*[s.cden for s in parts])
        out = None
        for s in parts:
            terms = s._on_grid(den, field)
            if s.valid_below != vb:
                terms = {k: xs for k, xs in terms.items() if qexp(k) < top}
            terms = _scale_terms(terms, cden // s.cden)
            if out is None:
                out = dict(terms)
                continue
            for k, ys in terms.items():
                xs = out.get(k)
                if xs is None:
                    out[k] = ys
                    continue
                acc = _dense(xs, field.degree)
                for i, v in ys:
                    acc[i] += v
                xs = field._nonzero(acc)
                if xs:
                    out[k] = xs
                else:
                    del out[k]
        return _normalised(type(self), out or {}, den, vb, None, field, cden)

    def __sub__(self, other):
        if not isinstance(other, _Series):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _assemble(type(self), _scale_terms(self._terms, -1), self.den, self.valid_below,
                         self.meta, self.field, self.cden)

    def __mul__(self, other):
        if isinstance(other, int):
            # with g = gcd(k, cden), gcd(cden/g, k/g) = 1: no content to find
            g = gcd(other, self.cden)
            return _assemble(type(self), _scale_terms(self._terms, other // g) if other else {},
                             self.den, self.valid_below, self.meta, self.field, self.cden // g)
        if isinstance(other, Fraction):
            return _normalised(type(self), _scale_terms(self._terms, other.numerator) if other
                               else {}, self.den, self.valid_below, self.meta, self.field,
                               self.cden * other.denominator)
        if isinstance(other, CycNumber):
            field = common_field(self.field, other.field)
            y = field.embed(other)
            out = _product(self._triples(self.den, field), [(0, 0, y.xs)] if y.xs else [],
                           _top(self.valid_below, self.den), field)
            return _normalised(type(self), self._from_triples(out), self.den, self.valid_below,
                               self.meta, field, self.cden * y.den)
        other = self._operand(other)
        if other is None:
            return NotImplemented
        vb = min(self.valid_below + other.val(), other.valid_below + self.val())
        den = lcm(self.den, other.den)
        field = common_field(CYC24, self.field, other.field)
        out = _product(self._triples(den, field), other._triples(den, field), _top(vb, den), field)
        return _normalised(type(self), self._from_triples(out), den, vb,
                           self._mul_meta(self.meta, other.meta), field, self.cden * other.cden)

    __rmul__ = __mul__

    # -- rendering ------------------------------------------------------------

    def to_text(self, max_terms: int | None = None) -> str:
        items = sorted(self._terms.items(), key=itemgetter(0))
        tail = ""
        if max_terms is not None and len(items) > max_terms:
            items, tail = items[:max_terms], " + ..."
        if not items:
            return "0"
        den, qexp, with_q, element = self.den, self._qexp, self._with_q, self.field._element
        parts = [self._term_text(with_q(k, Fraction(qexp(k), den)), element(xs, self.cden))
                 for k, xs in items]
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

    def to_json_text(self) -> str:
        """The series as one line of JSON with no whitespace: the one writer,
        which the CLI prints and :meth:`to_json` parses.  It costs per distinct
        coefficient and exponent: each distinct coefficient tuple is encoded
        once, as :meth:`CycNumber.to_json` writes it over its gcd with
        ``cden``, and each q-exponent's text formatted once; the terms and
        the bound are written around them, and ``meta``, whose strings may
        need escaping, through :func:`json.dumps`.  The bytes are those of
        ``json.dumps(self.to_json(), separators=(",", ":"))``."""
        # imported here, as in to_json: import jfkernel does not load json
        import json
        dump = json.JSONEncoder(separators=(",", ":")).encode
        den, cden, qexp, term = self.den, self.cden, self._qexp, self._term_json
        coeff = self.field._json
        exps, coeffs, parts = {}, {}, []
        for k, xs in sorted(self._terms.items(), key=itemgetter(0)):
            n = qexp(k)
            e = exps.get(n)
            if e is None:
                e = exps[n] = _frac_str(n, den)
            c = coeffs.get(xs)
            if c is None:
                c = coeffs[xs] = dump(coeff(xs, cden))
            parts.append(term(k, e, c))
        meta = "null" if self.meta is None else dump(self.meta.to_json())
        vb = _frac_str(*self.valid_below.as_integer_ratio())
        return f'{{"valid_below":"{vb}","terms":[{",".join(parts)}],"meta":{meta}}}'

    def to_json(self):
        """The parse of :meth:`to_json_text`, so the object and the text
        cannot differ: "valid_below", each term with its exponent as a
        string "p" or "p/q" and its coefficient as :meth:`CycNumber.to_json`
        writes it, ascending in the key, and "meta"."""
        import json
        return json.loads(self.to_json_text())

    @classmethod
    def _from_json(cls, obj, what):
        """Decode :meth:`to_json` output; malformed input raises ValueError.

        After the checks of ``_terms_json``, one pass over the terms with
        the checks and messages of ``_key_from_json``, :func:`_json_ratio`
        and :func:`~jfkernel.cyclotomic._json_number`, term by term, at the
        cost of the distinct coefficients: a key's q-exponent is read as the
        ints (p, q), each distinct exponent string parsed once, and each
        distinct coefficient checked and read once.  A coefficient is found
        again only when its den, order and num entries are exact ints equal
        to a checked one's: True == 1 == 1.0 and they hash alike."""
        items, vb, meta = _terms_json(obj, what)
        ratios, numbers = {}, {}

        def ratio(x, what):
            if x.__class__ is not str:
                return _json_ratio(x, what)
            pq = ratios.get(x)
            if pq is None:
                pq = ratios[x] = _json_ratio(x, what)
            return pq

        def number(c):
            if c.__class__ is dict:
                num = c.get("num")
                if num.__class__ is list:
                    key = (c.get("den"), c.get("order", 24), *num)
                    if set(map(type, key)) == _INT:
                        out = numbers.get(key)
                        if out is None:
                            out = numbers[key] = _json_number(c)
                        return out
            return _json_number(c)

        return _build(cls, [(cls._key_from_json(t, ratio), number(_entry(t, "coeff", "series term")))
                            for t in items], vb, meta)


def _q_text(e: Fraction) -> str:
    """The monomial q^e, or "" for e = 0."""
    if e == 0:
        return ""
    if e.denominator == 1:
        return "q" if e == 1 else f"q^{e.numerator}"
    return f"q^({e.numerator}/{e.denominator})"


class PuiseuxSeries(_Series):
    """A truncated q-series with rational exponents and cyclotomic
    coefficients; a key is the exponent's int on the grid 1/``den``, and
    ``terms`` maps each ``Fraction`` exponent to its coefficient."""

    __slots__ = ()

    _key = Fraction
    # a constant term prints without parentheses: 1+i, not (1+i)
    _bare_constant = True
    _mono = staticmethod(_q_text)

    @staticmethod
    def _qexp(e):
        return e

    @staticmethod
    def _with_q(_e, n):
        return n

    @staticmethod
    def one(valid_below, meta=None) -> "PuiseuxSeries":
        return PuiseuxSeries({Fraction(0): CYC24.one}, valid_below, meta)

    @staticmethod
    def monomial(coeff, exponent, valid_below, meta=None) -> "PuiseuxSeries":
        return PuiseuxSeries({Fraction(exponent): coeff}, valid_below, meta)

    def coeff(self, exponent) -> CycNumber:
        return self._coeff(self._index(exponent))

    def _triples(self, den, field):
        return [(n, 0, xs) for n, xs in self._on_grid(den, field).items()]

    @staticmethod
    def _from_triples(out):
        return {n: xs for n, _r, xs in out}

    @staticmethod
    def _mul_meta(a, b):
        return None

    @staticmethod
    def _term_json(_n, exp, coeff):
        """The JSON text of a term from its exponent's and coefficient's."""
        return f'{{"exp":"{exp}","coeff":{coeff}}}'

    @staticmethod
    def _key_from_json(t, ratio):
        return ratio(_entry(t, "exp", "series term"), "term exp")

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


def _assemble(cls, terms, den, valid_below, meta, field=CYC24, cden=1):
    """A series from terms already clean: int keys on the grid 1/den below
    the bound, nonempty coordinate tuples in ``field`` over ``cden`` > 0 with
    gcd(cden, every coordinate) = 1.  The zero series is held in Q(zeta_24)
    over 1."""
    out = object.__new__(cls)
    out._terms = terms
    out.den = den
    out.valid_below = valid_below
    out.meta = meta
    out.field, out.cden = (field, cden) if terms else (CYC24, 1)
    return out


def _normalised(cls, terms, den, valid_below, meta, field, cden):
    """:func:`_assemble` for coordinates over ``cden`` that may share a factor
    with it: one running gcd over the series (:func:`_content`)."""
    g = _content(cden, terms.values())
    if g != 1:
        terms = {k: tuple([(i, v // g) for i, v in xs]) for k, xs in terms.items()}
        cden //= g
    return _assemble(cls, terms, den, valid_below, meta, field, cden)


def _build(cls, pairs, valid_below, meta):
    """The one way into the layout: a series of ``cls`` from (key, (field,
    coordinates, denominator)) pairs, each key's q-exponent the ints (p, q)
    and the coordinates a tuple of nonzero (i, v).  Keys go on the lcm of the
    q's, terms at or above the bound and zero terms are dropped (a repeated
    key keeps its first place and last value), and coordinates go over the
    lcm denominator, normalised once.  Each distinct (field, coordinates,
    denominator) triple is lifted and rescaled once, and equal coefficients
    share their tuple."""
    qexp, with_q = cls._qexp, cls._with_q
    den = lcm(*{qexp(k)[1] for k, _c in pairs})
    terms = {}
    for k, c in pairs:
        p, q = qexp(k)
        terms[with_q(k, p * (den // q))] = c
    top = _top(valid_below, den)
    terms = {k: c for k, c in terms.items() if qexp(k) < top and c[1]}
    distinct = set(terms.values())
    field = _join(f for f, _xs, _d in distinct)
    cden = lcm(*{abs(d) for _f, _xs, d in distinct})
    # a negative d makes cden // d negative, which moves the sign
    lifted = {(f, xs, d): field._map(xs if d == cden else _scaled(xs, cden // d), field.n // f.n)
              for f, xs, d in distinct}
    return _normalised(cls, {k: lifted[c] for k, c in terms.items()}, den, valid_below, meta,
                       field, cden)


def _join(fields):
    """The field of a series whose coefficients lie in ``fields``: their one
    field, or, when they differ, their join with Q(zeta_24), the field every
    kernel would compute in; Q(zeta_24) for none."""
    fields = set(fields)
    return fields.pop() if len(fields) == 1 else common_field(CYC24, *fields)


def _scale_terms(terms, s):
    return terms if s == 1 else {k: _scaled(xs, s) for k, xs in terms.items()}


def _product(a, b, top, field):
    """The terms of a*b with q-exponent int below ``top``.

    ``a`` and ``b`` are lists of (q-exponent, zeta-power, coordinates), the
    exponents ints on one grid and the coordinates nonempty tuples in
    ``field``; a one-variable series has zeta-power 0.  (exponent,
    zeta-power) packs into one int key, so that a pair of terms costs an int
    comparison, an int addition and the coordinate products.  Each key
    accumulates unreduced coordinates in a list as wide as the highest
    coordinate index of ``a`` plus that of ``b``, plus one; only a list wider
    than the field's degree is reduced mod Phi_n, so a rational operand costs
    no reduction.  Returns (exponent, zeta-power, coordinates) triples with
    nonzero coordinates, over the product of the operands' denominators, in
    order of the key's first occurrence over the pairs (a outer, b inner).
    """
    if not a or not b:
        return []
    # zeta-powers of a product lie in [-h, h]; a key is N*width + r
    h = max(abs(r) for _n, r, _x in a) + max(abs(r) for _n, r, _x in b)
    width = 2 * h + 1
    size = max(xs[-1][0] for _n, _r, xs in a) + max(ys[-1][0] for _n, _r, ys in b) + 1
    A = [(n, n * width + r, xs) for n, r, xs in a]
    # a rational coefficient ((0, v),) of b is held as its one int v
    B = [(n, n * width + r, ys[0][1] if len(ys) == 1 and not ys[0][0] else ys)
         for n, r, ys in b]
    sums = {}
    for na, ka, xs in A:
        lim = top - na
        for nb, kb, ys in B:
            if nb < lim:
                key = ka + kb
                acc = sums.get(key)
                if acc is None:
                    acc = sums[key] = [0] * size
                if ys.__class__ is int:
                    for i, x in xs:
                        acc[i] += x * ys
                else:
                    for i, x in xs:
                        for j, y in ys:
                            acc[i + j] += x * y
    out = []
    for key, acc in sums.items():
        xs = field._nonzero(acc)
        if xs:
            r = (key + h) % width - h
            out.append(((key - r) // width, r, xs))
    return out


# ---------------------------------------------------------------------------
# Operators


def euler_d(a: PuiseuxSeries) -> PuiseuxSeries:
    """The normalised derivative D = q d/dq: c q^e -> e c q^e."""
    terms = {n: _scaled(xs, n) for n, xs in a._terms.items() if n}
    return _normalised(PuiseuxSeries, terms, a.den, a.valid_below, a.meta, a.field,
                       a.cden * a.den)


def dilate(a: PuiseuxSeries, m: int) -> PuiseuxSeries:
    """Substitute tau -> m tau: every exponent (and the bound) scales by m."""
    if m < 1:
        raise ValueError("dilation factor must be a positive integer")
    g = gcd(a.den, m)
    f = m // g
    return _assemble(PuiseuxSeries, {n * f: xs for n, xs in a._terms.items()},
                     a.den // g, a.valid_below * m, a.meta, a.field, a.cden)


def div_exact(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """Quotient c with c*b = a term-exactly on the inferred valid range.

    The divisor must have a nonzero leading coefficient inside its valid
    range.  The quotient bound is
    min(a.valid_below, b.valid_below + val(a) - val(b)) - val(b), which makes
    the round trip div_exact(a*b, b) = a hold term-exactly.  The quotient is
    on the grid lcm(a.den, b.den), in the join of Q(zeta_24) with both
    fields, its keys ascending.

    Long division from the lowest term up, by a monic divisor; a heap walks
    the remainder's exponents, ints on the common grid, in increasing order.
    A divisor whose coefficients are rational and integer multiples of its
    leading one, c/b.cden (the theta components), is (c/b.cden) B with B
    monic over Z.  Then each coordinate index of a is divided by B on its
    own, in int remainders, and each quotient coordinate is its remainder:
    the quotient scales by b.cden/c and is normalised once.  Any other
    divisor is divided out of both operands by its leading coefficient
    first; each remainder term accumulates unreduced coordinates over its
    own denominator, and reduced once and divided by one gcd it is the
    quotient term, kept in lowest terms since later remainder terms are
    built from it.
    """
    if b.is_zero():
        raise ExactDivisionError("division by a series that is zero on its valid range")
    vb_b = b.val()
    vb = min(a.valid_below, b.valid_below + a.val() - vb_b) - vb_b
    f = common_field(CYC24, a.field, b.field)
    L = lcm(a.den, b.den)
    fa, fb = L // a.den, L // b.den
    lead = min(b._terms)
    n_lead = lead * fb
    # remainder exponents from here on never reach the quotient
    top = _top(vb, L) + n_lead
    c = b._terms[lead][0][1]
    if all(len(ys) == 1 and not ys[0][0] and not ys[0][1] % c for ys in b._terms.values()):
        steps = [(n * fb - n_lead, ys[0][1] // c) for n, ys in sorted(b._terms.items())
                 if n != lead]
        cols = {}
        for n, xs in a._on_grid(L, f).items():
            if n < top:
                for i, v in xs:
                    cols.setdefault(i, {})[n] = v
        out = {}
        pop, push = heapq.heappop, heapq.heappush
        for i in sorted(cols):
            rem = cols[i]
            heap = list(rem)
            heapq.heapify(heap)
            while heap:
                n = pop(heap)
                v = rem.pop(n)
                if not v:
                    continue
                out.setdefault(n - n_lead, []).append((i, v))
                for step, y in steps:
                    t = n + step
                    if t >= top:
                        break
                    if t in rem:
                        rem[t] -= v * y
                    else:
                        rem[t] = -v * y
                        push(heap, t)
        g = gcd(b.cden, c) if c > 0 else -gcd(b.cden, c)
        s = b.cden // g
        return _normalised(PuiseuxSeries, {n: _scaled(out[n], s) for n in sorted(out)},
                           L, vb, None, f, a.cden * c // g)
    c = b._coeff(lead)
    if c != 1:
        c = c.inverse()
        if c.is_rational():
            c = c.rational_value()
        a, b = a * c, b * c
    ta, tb = a._on_grid(a.den, f), b._on_grid(b.den, f)
    steps = [(n * fb - n_lead, tb[n]) for n in sorted(tb) if n != lead]
    d = f.degree
    # remainder coordinates reach index d - 1 + (the tail's highest index)
    size = d + max((ys[-1][0] for _s, ys in steps), default=0)
    rem = {}
    for n, xs in ta.items():
        n *= fa
        if n < top:
            rem[n] = [_dense(xs, size), a.cden]
    heap = list(rem)
    heapq.heapify(heap)
    out = {}
    cden = 1
    while heap:
        n = heapq.heappop(heap)
        acc, qden = rem.pop(n)
        num = f._reduce(acc) if size > d else acc
        if not any(num):
            continue
        g = gcd(qden, *num)
        if g != 1:
            num = [x // g for x in num]
            qden //= g
        xq = [(i, x) for i, x in enumerate(num) if x]
        out[n - n_lead] = xq, qden
        cden = lcm(cden, qden)
        dq = qden * b.cden
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
    # each quotient term is in lowest terms, so over their lcm the
    # coordinates share no factor with it
    return _assemble(PuiseuxSeries, {n: _scaled(xq, cden // qden)
                                     for n, (xq, qden) in out.items()},
                     L, vb, None, f, cden)


def eta(order) -> PuiseuxSeries:
    """Dedekind eta below ``order``: :func:`eta_power` at p = 1."""
    meta = FormMeta(weight=Fraction(1, 2), level=1, kind="cuspidal", source="eta")
    return eta_power(1, order).with_meta(meta)


def eta_power(exponent: int, order) -> PuiseuxSeries:
    """eta^exponent below ``order`` (exponent p >= 1), by J.C.P. Miller's
    recurrence for the power of a power series.

    eta = q^{1/24} P with P = sum a_k q^k, where a_0 = 1 and, by Euler's
    pentagonal number theorem, a_k = (-1)^j at k = j(3j -+ 1)/2, j >= 1, and
    0 elsewhere.  Then P^p = sum b_n q^n with b_0 = 1 and
    n b_n = sum_{k=1..n} ((p+1) k - n) a_k b_{n-k}, the division exact; one
    pass costs about (terms of P^p) x (terms of P), for any p.
    The terms are stored in ascending order of exponent.
    """
    if exponent < 1:
        raise ValueError("exponent must be a positive integer")
    order = Fraction(order)
    if order <= Fraction(exponent, 24):
        raise ValueError(f"order must exceed {Fraction(exponent, 24)}")
    # b_n for n < count, the terms q^{p/24 + n} below the order; a_k for
    # 0 < k < count, ascending, and j(3j - 1)/2 >= j^2 bounds j
    count = (_top(order, 24) - exponent + 23) // 24
    a = [(k, (-1) ** j) for j in range(1, isqrt(count) + 1)
         for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if k < count]
    b = [1]
    for n in range(1, count):
        acc = 0
        for k, v in a:
            if k > n:
                break
            acc += ((exponent + 1) * k - n) * v * b[n - k]
        b.append(acc // n)
    terms = {exponent + 24 * n: ((0, v),) for n, v in enumerate(b) if v}
    meta = FormMeta(weight=Fraction(exponent, 2), level=1, kind="cuspidal", source=f"eta^{exponent}")
    return _assemble(PuiseuxSeries, terms, 24, order, meta)
