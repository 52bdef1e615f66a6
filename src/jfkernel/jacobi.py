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
(q-exponent, zeta-power) keys, the q-exponent an int on the series' grid
1/den, so it shares the one-variable constructor, arithmetic, comparison,
product kernel and coefficient layout: integer coordinate tuples in one
field over one series denominator.  The restriction and heat operator share
:func:`_collapse`: it keeps the grid, and coefficients add up as unreduced
integer coordinates, with one running gcd over the result.
:func:`theta_decompose` compares coefficients as tuples.  theta_j(m, r) and
the theta components share one helper, :func:`_theta`, for the index
refusal, the ``Fraction`` order and the metadata, and are built on the grid
1/4m: theta_j with the coordinate tuple of 1 as every coefficient, a
component with its count of lattice points, from one cached terms dict that
every call with the same (m, r mod 2m, order) shares.  A theta sum
sum_r h_r theta_j(m, r) (:func:`recompose`) is one relabelling pass into one
series: theta_j has unit coefficients and no zeta-power twice, so each term
of h_r moves to each lattice point with its coordinates only lifted and
scaled to the sum's field and denominator, with no product, no series sum
and one normalisation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .cyclotomic import CYC24, CycNumber, _is_int, common_field
from .series import (
    FormMeta,
    PuiseuxSeries,
    _assemble,
    _entry,
    _normalised,
    _q_text,
    _scale_terms,
    _Series,
    _top,
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

    A key is (q-exponent, zeta-power), the q-exponent an int on the grid
    1/``den``; ``terms`` maps (``Fraction`` q-exponent, zeta-power) to the
    coefficient.  ``valid_below`` bounds the known q-exponents
    exactly as for :class:`~jfkernel.series.PuiseuxSeries`.  A one-variable
    operand of ``+``, ``-`` or ``*`` is lifted to zeta-power 0.
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
    def _with_q(key, n):
        return n, key[1]

    @staticmethod
    def from_puiseux(a: PuiseuxSeries) -> "JacobiSeries":
        return _assemble(JacobiSeries, {(n, 0): xs for n, xs in a._terms.items()},
                         a.den, a.valid_below, a.meta, a.field, a.cden)

    def coeff(self, n, r) -> CycNumber:
        return self._coeff((self._index(n), int(r)))

    def _operand(self, other):
        if isinstance(other, PuiseuxSeries):
            return JacobiSeries.from_puiseux(other)
        return other if isinstance(other, JacobiSeries) else None

    def __radd__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other + self

    def _triples(self, den, field):
        return [(n, r, xs) for (n, r), xs in self._on_grid(den, field).items()]

    @staticmethod
    def _from_triples(out):
        return {(n, r): xs for n, r, xs in out}

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
    def _term_json(key, n, coeff):
        """The JSON text of a term from its exponent's and coefficient's."""
        return f'{{"n":"{n}","r":{key[1]},"coeff":{coeff}}}'

    @staticmethod
    def _key_from_json(t, ratio):
        r = _entry(t, "r", "series term")
        if not _is_int(r):
            raise ValueError(f"term r must be an integer, got {r!r}")
        return ratio(_entry(t, "n", "series term"), "term n"), r

    @staticmethod
    def from_json(obj) -> "JacobiSeries":
        """Decode :meth:`to_json` output; malformed input raises ValueError."""
        return JacobiSeries._from_json(obj, "two-variable series")

    def __repr__(self):
        return f"<JacobiSeries {len(self._terms)} terms below q^{self.valid_below}>"

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
    (2mn + r)^2/4m and 2mn + r for integers n, the q-exponent as the int
    (2mn + r)^2 on the grid 1/4m.

    The lattice depends on r mod 2m only; with r0 = r mod 2m it is walked as
    2ms + r0 for s = 0, +-1, +-2, ...  Every term with |s| > n lies above
    m n^2, so the walk stops once m n^2 reaches ``order``."""
    r0 = r % (2 * m)
    top = _top(order, 4 * m)
    n = 0
    while True:
        for s in {n, -n}:
            z = 2 * m * s + r0
            if z * z < top:
                yield z * z, z
        if 4 * m * m * n * n >= top:
            break
        n += 1


def _theta(m: int, order, source: str):
    """The order as a ``Fraction`` and the metadata of an index-m theta
    function from ``source``; the index must be positive.  Both builders put
    their terms on the grid 1/4m."""
    if m < 1:
        raise ValueError("index must be a positive integer")
    return Fraction(order), FormMeta(weight=Fraction(1, 2), index=m, kind="theta-component",
                                     source=source)


def theta_j(m: int, r: int, order) -> JacobiSeries:
    """The index-m theta function with residue r, truncated below ``order``.

    Terms are q^{m(n + r/2m)^2} zeta^{2mn + r} with unit coefficients.
    """
    order, meta = _theta(m, order, f"theta_j({m},{r})")
    terms = dict.fromkeys(_theta_lattice(m, r, order), ((0, 1),))
    return _assemble(JacobiSeries, terms, 4 * m, order, meta)


# The key holds the caller's order, so only a bound caps this cache; at
# seed 3 a kernel-deep run builds 85 keys and ``verify --suite all`` 74, so
# a bound of 256 evicts nothing.
@lru_cache(maxsize=256)
def _theta_component_terms(m: int, r: int, order: Fraction):
    """The terms dict of theta_{m,r} below ``order`` on the grid 1/4m: each
    exponent, ascending, with its count of lattice points as the coordinate
    tuple.  Every series built from one key shares the dict: series are
    immutable."""
    acc = {}
    for n, _z in _theta_lattice(m, r, order):
        acc[n] = acc.get(n, 0) + 1
    return {n: ((0, c),) for n, c in sorted(acc.items())}


def theta_component(m: int, r: int, order) -> PuiseuxSeries:
    """theta_{m,r}(tau) = theta_j(m, r)(tau, 0), as a one-variable series;
    every call with one (m, r mod 2m, order) shares one cached terms dict."""
    order, meta = _theta(m, order, f"theta({m},{r})")
    return _assemble(PuiseuxSeries, _theta_component_terms(m, r % (2 * m), order), 4 * m,
                     order, meta)


# ---------------------------------------------------------------------------
# Operators


def _collapse(phi: JacobiSeries, k, meta) -> PuiseuxSeries:
    """Sum each q-exponent's coefficients over the zeta-powers, weighted by
    the heat factor k r^2 - 4n when ``k`` is given.

    The restriction (``k`` None) carries no weight: each term's coordinates
    add straight into its exponent's sum.  On phi's grid n = N/L, the heat
    factor is the int k_num r^2 L - 4 N k_den over k_den L, so the sums stay
    unreduced integer coordinates over phi's denominator times k_den L, with
    one running gcd over the result.  The result is on phi's grid, its keys
    in order of first occurrence; an exponent whose sum vanishes, as every
    one does for a kernel element's restriction, is dropped.
    """
    f = common_field(CYC24, phi.field)
    L = phi.den
    sums = {}
    if k is None:
        scale = 1
        for (n, _r), xs in phi._on_grid(L, f).items():
            acc = sums.get(n)
            if acc is None:
                acc = sums[n] = [0] * f.degree
            for i, x in xs:
                acc[i] += x
    else:
        a, b, scale = k.numerator * L, -4 * k.denominator, k.denominator * L
        for (n, r), xs in phi._on_grid(L, f).items():
            w = a * r * r + b * n
            if w:
                acc = sums.get(n)
                if acc is None:
                    acc = sums[n] = [0] * f.degree
                for i, x in xs:
                    acc[i] += w * x
    out = {n: f._nonzero(acc) for n, acc in sums.items() if any(acc)}
    return _normalised(PuiseuxSeries, out, L, phi.valid_below, meta, f, phi.cden * scale)


def restrict_z0(phi: JacobiSeries) -> PuiseuxSeries:
    """The restriction z = 0: collapse zeta-powers, keeping the q-exponent."""
    meta = None
    if phi.meta is not None:
        meta = FormMeta(weight=phi.meta.weight, level=phi.meta.level,
                        character=phi.meta.character, source="restrict_z0")
    return _collapse(phi, None, meta)


def d2_hat(phi: JacobiSeries, k) -> PuiseuxSeries:
    """Normalised heat operator at weight k: q^n zeta^r -> (k r^2 - 4n) q^n.

    ``k`` is passed explicitly (not read from metadata) so the operator can
    be applied at any weight.
    """
    k = Fraction(k)
    return _collapse(phi, k, FormMeta(weight=k + 2, kind="unchecked", source="d2_hat"))


def heat_check(m: int, r: int, order) -> bool:
    """True iff the heat operator at weight 1/m kills theta_j(m, r): it sends
    each term q^{z^2/4m} zeta^z to (z^2/m - z^2/m) q^{z^2/4m} = 0."""
    return d2_hat(theta_j(m, r, order), Fraction(1, m)).is_zero()


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
    L = math.lcm(4 * m, phi.den)
    f, step = L // phi.den, L // (4 * m)
    slots = [{} for _ in range(two_m)]
    violations = []
    # one series, one denominator: equal coefficients have equal tuples
    for key, xs in phi._terms.items():
        n, r = key
        comp = slots[r % two_m]
        e = n * f - r * r * step
        prev = comp.get(e)
        if prev is None:
            comp[e] = (xs, key)
        elif prev[0] != xs:
            violations.append((prev[1], key))
    if violations:
        den = phi.den
        raise DecompositionInconsistent(
            [tuple((Fraction(n, den), r) for n, r in pair) for pair in sorted(violations)])
    comps = []
    for r in range(two_m):
        rmin = min(r, two_m - r) if r else 0
        bound = phi.valid_below - Fraction(rmin * rmin, 4 * m)
        top = _top(bound, L)
        terms = {e: xs for e, (xs, _) in slots[r].items() if e < top}
        meta = FormMeta(index=m, source=f"component({r})")
        if phi.meta is not None and phi.meta.weight is not None:
            meta = FormMeta(weight=phi.meta.weight - Fraction(1, 2), index=m,
                            level=phi.meta.level, character=phi.meta.character,
                            source=f"component({r})")
        comps.append(_normalised(PuiseuxSeries, terms, L, bound, meta, phi.field, phi.cden))
    return comps


def recompose(components, m: int, order) -> JacobiSeries:
    """sum_r h_r theta_j(m, r) for a mapping {r: h_r}, each r in 0..2m-1;
    inverse of :func:`theta_decompose`.

    A relabelling in one pass: theta_j has unit coefficients and no
    zeta-power twice, so the term (e, xs) of h_r at the lattice point (n, z)
    is the term (e + n, z) of the sum, written straight into one dict with xs
    lifted to the sum's field and scaled to its denominator; the residues
    r mod 2m are distinct, so no two keys meet.  These are the bound, grid,
    field and denominator of the products h_r * theta_j(m, r, order) added
    up: the bound is the least over r of min(order + val h_r,
    bound h_r + val theta_j(m, r)), val theta being ``order`` for an empty
    lattice; the grid is lcm(4m, every h_r.den); the field (the join with
    Q(zeta_24), which every h_r.field must allow) and the denominator (the
    lcm of the ``cden``) are over the components with a term below the
    bound, normalised once.  Terms are stored by component in mapping order,
    then lattice point, then h_r-term.  {} gives the zero series below
    ``order``."""
    for r in components:
        if not (_is_int(r) and 0 <= r < 2 * m):
            raise ValueError(f"component {r!r} is not in 0..{2 * m - 1}")
    if not components:
        return JacobiSeries.zero(order)
    order = Fraction(order)
    hs = list(components.values())
    lattices = [list(_theta_lattice(m, r, order)) for r in components]
    # val theta_j(m, r): its least exponent, or ``order`` for an empty lattice
    vals = [Fraction(min(t)[0], 4 * m) if t else order for t in lattices]
    fields = [common_field(CYC24, h.field) for h in hs]
    vb = min(min(order + h.val(), h.valid_below + v) for h, v in zip(hs, vals))
    parts = [(h, t, f) for h, t, v, f in zip(hs, lattices, vals, fields) if h.val() + v < vb]
    field = common_field(CYC24, *[f for _h, _t, f in parts])
    cden = math.lcm(*[h.cden for h, _t, _f in parts])
    den = math.lcm(4 * m, *[h.den for h in hs])
    top, step = _top(vb, den), den // (4 * m)
    grids = [(t, _scale_terms(h._on_grid(den, field), cden // h.cden).items())
             for h, t, _f in parts]
    out = {(e + n * step, z): xs for t, terms in grids for n, z in t
           for e, xs in terms if e + n * step < top}
    return _normalised(JacobiSeries, out, den, vb, None, field, cden)


def _symmetric(comps, m: int) -> bool:
    """True iff the 2m components satisfy h_r = h_{2m-r} on their common range."""
    return all(comps[r].same_below(comps[2 * m - r]) for r in range(1, m))


def symmetry_check(phi: JacobiSeries, m: int) -> bool:
    """True iff the components of phi satisfy h_r = h_{2m-r} on their common range."""
    return _symmetric(theta_decompose(phi, m), m)


def tau_shift(a):
    """Formal substitution tau -> tau + 1: multiply c q^e by e^{2 pi i e}.

    Needs every exponent denominator to divide 24 so the phase stays inside
    Q(zeta_24).  The coefficients go into their join f with Q(zeta_24), and
    the phase zeta_24^{24e} is a shift by (24e mod 24) n/24 there: one
    :meth:`~jfkernel.cyclotomic.CyclotomicField._map` lifts and shifts each
    coefficient.  Both keep the content of the coordinates, so the series
    denominator stays as it is.
    """
    f = common_field(CYC24, a.field)
    den, qexp, step, lift = a.den, a._qexp, f.n // 24, f.n // a.field.n
    out = {}
    for k, xs in a._terms.items():
        n = qexp(k)
        if 24 * n % den:
            raise ValueError(f"exponent {Fraction(n, den)} leaves Q(zeta_24) under the shift")
        out[k] = f._map(xs, lift, (24 * n // den) % 24 * step)
    return _assemble(type(a), out, den, a.valid_below, a.meta, f, a.cden)
