"""Two-variable series phi(tau, z) = sum c(n, r) q^n zeta^r and the theta
machinery attached to an index m:

* the index-m theta functions theta_j(m, r) with terms
  q^{m(n + r/2m)^2} zeta^{2mn + r};
* the restriction map phi(tau, z) -> phi(tau, 0);
* the normalised heat operator acting on monomials as
  q^n zeta^r -> (k r^2 - 4n) q^n  (the plain operator divided by 2 pi i);
* the decomposition of a series into its 2m half-integral components
  h_r(tau), with the consistency condition that makes the decomposition
  well defined doubling as a validity check.

zeta-powers are integers throughout; only the q-exponents are rational.
:class:`JacobiSeries` is the series core of :mod:`jfkernel.series` with
(Fraction q-exponent, int zeta-power) keys, so it shares the one-variable
constructor, arithmetic, comparison and product kernel.  The restriction
and heat operator share :func:`_collapse`: inside both the q-exponents are
ints on a common grid and coefficients add up as unreduced integer
coordinates, normalised once per output term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .cyclotomic import CYC24, CycNumber, _is_int, coerce24
from .series import (
    FormMeta,
    PuiseuxSeries,
    _assemble,
    _coords,
    _entry,
    _frac_str,
    _grid,
    _json_rational,
    _q_text,
    _Series,
)


class DecompositionInconsistent(ValueError):
    """The series is not a valid index-m theta combination.

    ``witnesses`` lists pairs of source terms ((n, r), (n', r')) that imply
    conflicting component coefficients.
    """

    def __init__(self, witnesses):
        self.witnesses = witnesses
        super().__init__(f"inconsistent theta components at {witnesses[:3]}")


class JacobiSeries(_Series):
    """Sparse truncated series in (q, zeta); immutable by convention.

    ``terms`` maps (q-exponent, zeta-power) to a Q(zeta_24) coefficient;
    ``valid_below`` bounds the known q-exponents exactly as for
    :class:`~jfkernel.series.PuiseuxSeries`.  A one-variable operand of
    ``+``, ``-`` or ``*`` is lifted to zeta-power 0.
    """

    __slots__ = ()

    # a constant term prints in parentheses: (1+i), not 1+i
    _bare_constant = False
    _qexp = staticmethod(itemgetter(0))

    @staticmethod
    def _key(key):
        n, r = key
        return Fraction(n), int(r)

    @staticmethod
    def from_puiseux(a: PuiseuxSeries) -> "JacobiSeries":
        return _assemble(JacobiSeries, {(e, 0): c for e, c in a.terms.items()}, a.valid_below, a.meta)

    def coeff(self, n, r) -> CycNumber:
        return self.terms.get((Fraction(n), int(r)), CYC24.zero)

    def _operand(self, other):
        if isinstance(other, PuiseuxSeries):
            return JacobiSeries.from_puiseux(other)
        return other if isinstance(other, JacobiSeries) else None

    def __radd__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other + self

    def _triples(self):
        return [(n, r, c) for (n, r), c in self.terms.items()]

    @staticmethod
    def _from_triples(out):
        return {(n, r): c for n, r, c in out}

    @staticmethod
    def _mul_meta(a: FormMeta | None, b: FormMeta | None) -> FormMeta | None:
        if a is None or b is None:
            return None
        weight = a.weight + b.weight if a.weight is not None and b.weight is not None else None
        index = a.index + b.index if a.index is not None and b.index is not None else None
        return FormMeta(weight=weight, index=index)

    @staticmethod
    def _mono(key):
        n, r = key
        z = "" if r == 0 else "z" if r == 1 else f"z^{r}" if r > 0 else f"z^({r})"
        return "*".join(x for x in (_q_text(n), z) if x)

    @staticmethod
    def _term_json(key, coeff):
        return {"n": _frac_str(key[0]), "r": key[1], "coeff": coeff}

    @staticmethod
    def _key_from_json(t):
        r = _entry(t, "r", "series term")
        if not _is_int(r):
            raise ValueError(f"term r must be an integer, got {r!r}")
        return _json_rational(_entry(t, "n", "series term"), "term n"), r

    @staticmethod
    def from_json(obj) -> "JacobiSeries":
        """Decode :meth:`to_json` output; malformed input raises ValueError."""
        return JacobiSeries._from_json(obj, "two-variable series")

    def __repr__(self):
        return f"<JacobiSeries {len(self.terms)} terms below q^{self.valid_below}>"

    __add__ = _Series.__add__
    __sub__ = _Series.__sub__
    __neg__ = _Series.__neg__
    __mul__ = __rmul__ = _Series.__mul__
    same_below = _Series.same_below
    to_json = _Series.to_json


# ---------------------------------------------------------------------------
# Theta functions


def _theta_lattice(m: int, r: int, order: Fraction):
    """The (q-exponent, zeta-power) pairs of theta_j(m, r) below ``order``:
    (2mn + r)^2/4m and 2mn + r for integers n."""
    n = 0
    while True:
        added = False
        for s in {n, -n}:
            z = 2 * m * s + r
            e = Fraction(z * z, 4 * m)
            if e < order:
                yield e, z
                added = True
        if not added and m * (n - 1) ** 2 > order:
            break
        n += 1


def theta_j(m: int, r: int, order) -> JacobiSeries:
    """The index-m theta function with residue r, truncated below ``order``.

    Terms are q^{m(n + r/2m)^2} zeta^{2mn + r} with unit coefficients.
    """
    if m < 1:
        raise ValueError("index must be a positive integer")
    order = Fraction(order)
    terms = {key: CYC24.one for key in _theta_lattice(m, r, order)}
    meta = FormMeta(weight=Fraction(1, 2), index=m, kind="theta-component",
                    source=f"theta_j({m},{r})")
    return _assemble(JacobiSeries, terms, order, meta)


@lru_cache(maxsize=None)
def _theta_component_terms(m: int, r: int, order: Fraction):
    acc = {}
    for e, _z in _theta_lattice(m, r, order):
        acc[e] = acc.get(e, 0) + 1
    return tuple((e, coerce24(c)) for e, c in sorted(acc.items()))


def theta_component(m: int, r: int, order) -> PuiseuxSeries:
    """theta_{m,r}(tau) = theta_j(m, r)(tau, 0), as a one-variable series."""
    order = Fraction(order)
    terms = dict(_theta_component_terms(m, r % (2 * m), order))
    meta = FormMeta(weight=Fraction(1, 2), index=m, kind="theta-component",
                    source=f"theta({m},{r})")
    return _assemble(PuiseuxSeries, terms, order, meta)


# ---------------------------------------------------------------------------
# Operators


def _collapse(phi: JacobiSeries, k=None) -> dict:
    """Sum each q-exponent's coefficients over the zeta-powers, weighted by
    the heat factor k r^2 - 4n when ``k`` is given.

    On the grid n = N/L of phi's exponents, the factor is the int
    k_num r^2 L - 4 N k_den over k_den L, so the sums stay unreduced integer
    coordinates and each exponent is normalised once.  Keys come in order of
    first occurrence, from phi's own Fraction keys.
    """
    f, ((den, coords),) = _coords(phi.terms.values())
    L = math.lcm(*(n.denominator for n, _r in phi.terms))
    if k is None:
        a, b, c, scale = 0, 0, 1, 1
    else:
        a, b, c, scale = k.numerator * L, -4 * k.denominator, 0, k.denominator * L
    sums = {}
    for (n, r), xs in zip(phi.terms, coords):
        N = _grid(n, L)
        w = a * r * r + b * N + c
        if w:
            slot = sums.get(N)
            if slot is None:
                slot = sums[N] = (n, [0] * f.degree)
            acc = slot[1]
            for i, x in xs:
                acc[i] += w * x
    out = {}
    for n, acc in sums.values():
        v = f.element(acc, den * scale)
        if not v.is_zero():
            out[n] = v
    return out


def restrict_z0(phi: JacobiSeries) -> PuiseuxSeries:
    """The restriction z = 0: collapse zeta-powers, keeping the q-exponent."""
    meta = None
    if phi.meta is not None:
        meta = FormMeta(weight=phi.meta.weight, level=phi.meta.level,
                        character=phi.meta.character, source="restrict_z0")
    return _assemble(PuiseuxSeries, _collapse(phi), phi.valid_below, meta)


def d2_hat(phi: JacobiSeries, k) -> PuiseuxSeries:
    """Normalised heat operator at weight k: q^n zeta^r -> (k r^2 - 4n) q^n.

    ``k`` is passed explicitly (not read from metadata) so the operator can
    be applied at any weight.
    """
    k = Fraction(k)
    meta = FormMeta(weight=k + 2, kind="unchecked", source="d2_hat")
    return _assemble(PuiseuxSeries, _collapse(phi, k), phi.valid_below, meta)


def heat_check(m: int, r: int, order) -> bool:
    """True iff every term of theta_j(m, r) satisfies r_eff^2 = 4 m n_eff."""
    phi = theta_j(m, r, order)
    return all(Fraction(rr * rr) == 4 * m * n for (n, rr), _ in phi.terms.items())


def theta_decompose(phi: JacobiSeries, m: int) -> list[PuiseuxSeries]:
    """Split phi into its 2m components h_r with h_r exponents n - r^2/4m.

    The component coefficient may only depend on (4mn - r^2, r mod 2m); any
    two source terms violating that raise :class:`DecompositionInconsistent`.
    Component r is valid below phi.valid_below - min(r'^2)/4m, minimising
    over representatives r' = r mod 2m.
    """
    if m < 1:
        raise ValueError("index must be a positive integer")
    two_m = 2 * m
    # exponents n - r^2/4m as ints on the grid 1/L
    L = math.lcm(4 * m, phi.valid_below.denominator, *(n.denominator for n, _r in phi.terms))
    step = L // (4 * m)
    slots = [{} for _ in range(two_m)]
    violations = []
    for (n, r), c in phi.terms.items():
        comp = slots[r % two_m]
        e = _grid(n, L) - r * r * step
        prev = comp.get(e)
        if prev is None:
            comp[e] = (c, (n, r))
        elif prev[0] != c:
            violations.append((prev[1], (n, r)))
    if violations:
        raise DecompositionInconsistent(sorted(violations))
    comps = []
    for r in range(two_m):
        rmin = min(r, two_m - r) if r else 0
        bound = phi.valid_below - Fraction(rmin * rmin, 4 * m)
        top = _grid(bound, L)
        terms = {Fraction(e, L): c for e, (c, _) in slots[r].items() if e < top}
        meta = FormMeta(index=m, source=f"component({r})")
        if phi.meta is not None and phi.meta.weight is not None:
            meta = FormMeta(weight=phi.meta.weight - Fraction(1, 2), index=m,
                            level=phi.meta.level, character=phi.meta.character,
                            source=f"component({r})")
        comps.append(_assemble(PuiseuxSeries, terms, bound, meta))
    return comps


def recompose(components, m: int, order) -> JacobiSeries:
    """sum_r h_r * theta_j(m, r); inverse of :func:`theta_decompose`."""
    if len(components) != 2 * m:
        raise ValueError("need exactly 2m components")
    out = JacobiSeries.zero(order)
    for r, h in enumerate(components):
        out = out + h * theta_j(m, r, Fraction(order))
    return out


def symmetry_check(phi: JacobiSeries, m: int) -> bool:
    """True iff the components satisfy h_r = h_{2m-r} on their common range."""
    comps = theta_decompose(phi, m)
    two_m = 2 * m
    for r in range(1, m):
        a, b = comps[r], comps[two_m - r]
        if not a.same_below(b, min(a.valid_below, b.valid_below)):
            return False
    return True


def tau_shift(a):
    """Formal substitution tau -> tau + 1: multiply c q^e by e^{2 pi i e}.

    Needs every exponent denominator to divide 24 so the phase stays inside
    Q(zeta_24).
    """
    out = {}
    for k, c in a.terms.items():
        e = a._qexp(k)
        frac = e - math.floor(e)
        if 24 % frac.denominator:
            raise ValueError(f"exponent {e} leaves Q(zeta_24) under the shift")
        out[k] = c * CYC24.zeta(int(24 * frac) % 24)
    return type(a)(out, a.valid_below, a.meta)
