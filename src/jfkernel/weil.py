"""Multiplier matrices for the index-m theta vector.

``u_gen`` holds the explicitly known index-1 and index-2 generator matrices,
the reference; ``u_gen_general`` builds the general-index generators

    U_m(T) = diag(e^{2 pi i r^2 / 4m}),
    U_m(S) = e^{-pi i/4} / sqrt(2m) * (e^{-2 pi i r r' / 2m}),

and the letters -I and ST2S as the products of these that
:data:`jfkernel.sl2.LETTER_SPELLINGS` spells, whose correctness is pinned
numerically against the theta transformation law by the verify module.
Every matrix these functions return has its entries in Q(zeta_n) with
n = lcm(24, 4m); the 1/sqrt(2m) factor is tracked as a separate positive
radicand so that raw word products stay integral.

Word products go through the local factors of the discriminant form
(Z/2m, r^2/4m), which splits orthogonally over the prime powers q of 2m:
label r by its local coordinates (x_q), with r = sum_q (2m/q) x_q mod 2m.
Then U_m(T) and U_m(S) are Kronecker products of one small letter per q
(:func:`_local_letter`), with e^{-pi i/4} on the 2-part, so every word is
the Kronecker product of its local word products.  ``word_product``
multiplies q x q matrices per factor, each in the least field holding its
letters (Q(zeta_lcm(8, 2q)) for the 2-part, Q(zeta_2q) for an odd q), two
letters at a time: each block of one or two letter powers, reduced by the
letter periods, is built and kept by one bounded cache (:func:`_block`).
It lifts the local products into Q(zeta_n) and assembles the 2m x 2m
matrix once; when 2m is a power of two its one factor is U_m itself.

A word product of generator matrices equals the true multiplier matrix of
the evaluated group element only up to a sign: the square root branch in the
transformation law is a cocycle, not a homomorphism.  ``resolve`` computes
that sign exactly from the word's letters and integer matrices (see
:func:`word_scalar`), so all assertions are exact.  The numeric fit in
:func:`jfkernel.numeric.fit_scalar` is kept only as an independent oracle.

All matrices here are unitary, so inverses are conjugate transposes.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
from itertools import chain

from ._value import power
from .cyclotomic import (CYC24, MAX_JSON_ORDER, CycNumber, _content, _factor, _scaled,
                         _sqrt_order, _square_part, common_field, cyclotomic_field)
from .sl2 import (
    I2,
    LETTER_SPELLINGS,
    GroupWord,
    SL2Mat,
    gamma_dilate,
    letter_matrix,
    sl2_word,
    sqrt_cocycle,
)


class NotInX(ValueError):
    """Matrix is outside the checkerboard subgroup used at index 2."""


def field_order(m: int) -> int:
    if m < 1:
        raise ValueError("index must be a positive integer")
    return math.lcm(24, 4 * m)


class UMatrix:
    """A square matrix over a cyclotomic field divided by sqrt(radicand).

    The stored value is ``rows / sqrt(radicand)`` with radicand a positive
    squarefree integer; the constructor folds square factors of a radicand
    into the entries.  The entries are held as a series holds its
    coefficients (:mod:`jfkernel.series`): each one the tuple of its nonzero
    coordinates (i, v) in ``field``, ascending in i and () for zero, over one
    positive matrix denominator ``den``, with gcd(den, every coordinate) = 1.
    That form is canonical, so equal matrices over one field and radicand
    have equal ``den`` and tuples.  :class:`CycNumber` appears only at the
    edge: the constructor, which takes rows of them, ``scale``, which takes
    one, and ``rows``, ``entry``, ``det2`` and ``to_complex``; ``to_json``
    writes the tuples, and scalars are applied entry by entry to them.
    Instances are treated as immutable.
    """

    __slots__ = ("field", "den", "_entries", "radicand", "resolved")

    def __new__(cls, field, rows, radicand=1, resolved=False):
        """Rows of :class:`CycNumber` entries, each lifted into ``field``;
        an entry whose field does not embed there raises ValueError, and so
        does a radicand with a non-square part free of the primes up to
        MAX_JSON_ORDER, whose root :meth:`canonical` could never build."""
        if radicand < 1:
            raise ValueError("radicand must be positive")
        s, radicand = _square_part(radicand, MAX_JSON_ORDER)
        rows = [[field.embed(c) for c in row] for row in rows]
        den = math.lcm(*[c.den for row in rows for c in row])
        entries = [tuple([_scaled(c.xs, den // c.den) for c in row]) for row in rows]
        return _normalised(field, den * s, entries, radicand, resolved)

    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def rows(self):
        """The entries as :class:`CycNumber` rows, before the radicand;
        built on each access."""
        element, den = self.field._element, self.den
        return tuple(tuple([element(xs, den) for xs in row]) for row in self._entries)

    def entry(self, i: int, j: int) -> CycNumber:
        """Exact entry value; folds the radicand into the field."""
        c = self.canonical()
        return c.field._element(c._entries[i][j], c.den)

    @staticmethod
    def identity(field, size) -> "UMatrix":
        rows = tuple(tuple([field.one.xs if i == j else () for j in range(size)])
                     for i in range(size))
        return _assemble(field, 1, rows, 1, True)

    def canonical(self) -> "UMatrix":
        """Fold sqrt(radicand) into the entries (radicand becomes 1): each
        entry times sqrt(radicand)/radicand, in the least field holding both;
        a lift above MAX_JSON_ORDER is refused before it is built."""
        if self.radicand == 1:
            return self
        n = math.lcm(self.field.n, _sqrt_order(self.radicand))
        if n > max(MAX_JSON_ORDER, self.field.n):
            raise ValueError(f"sqrt({self.radicand}) needs Q(zeta_{n}), above {MAX_JSON_ORDER}")
        return _times_scalar(self, _root(n, self.radicand), self.radicand)

    def __matmul__(self, other: "UMatrix") -> "UMatrix":
        """The product; unresolved.  See :func:`_product`."""
        return _product(self, other)

    def scale(self, c: CycNumber) -> "UMatrix":
        """The product with the scalar c, in the field the two share."""
        return _times_scalar(self, c, 1)

    def __pow__(self, e: int) -> "UMatrix":
        """Square and multiply (:func:`jfkernel._value.power`), so U^1 costs
        no product; like every product, a positive power is unresolved."""
        if e < 0:
            return self.conj_transpose() ** (-e)
        if e == 0:
            return UMatrix.identity(self.field, self.size)
        out = power(self, e, operator.matmul)
        return out._with(resolved=False) if out.resolved else out

    def conj(self) -> "UMatrix":
        """Complex conjugation zeta -> zeta^{-1}, entry by entry.  An
        automorphism of Z[zeta] keeps the content of the coordinates, so
        ``den`` stays."""
        cmap = self.field._map
        return self._with(tuple(tuple([cmap(xs, -1) for xs in row]) for row in self._entries))

    def transpose(self) -> "UMatrix":
        return self._with(tuple(zip(*self._entries)))

    def conj_transpose(self) -> "UMatrix":
        """The inverse, for the unitary matrices produced in this module."""
        return self.conj().transpose()

    def embed(self, field) -> "UMatrix":
        """The same matrix over ``field``, whose order the own field's divides;
        lifting keeps the content of the coordinates, so ``den`` stays."""
        if field is self.field:
            return self
        if field.n % self.field.n:
            raise ValueError(f"no embedding Q(zeta_{self.field.n}) -> Q(zeta_{field.n})")
        step, lift = field.n // self.field.n, field._map
        entries = tuple(tuple([lift(xs, step) for xs in row]) for row in self._entries)
        return _assemble(field, self.den, entries, self.radicand, self.resolved)

    def _with(self, entries=None, resolved=None) -> "UMatrix":
        """This matrix with other entries over the same denominator, or
        another flag."""
        return _assemble(self.field, self.den, self._entries if entries is None else entries,
                         self.radicand, self.resolved if resolved is None else resolved)

    def det2(self) -> CycNumber:
        """Determinant of a 2x2 matrix (radicand divides out rationally)."""
        if self.size != 2:
            raise ValueError("det2 needs a 2x2 matrix")
        rows = self.rows
        d = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        return d / self.radicand

    def __eq__(self, other):
        if not isinstance(other, UMatrix):
            return NotImplemented
        if self.size != other.size:
            return False
        a, b = self, other
        if a.radicand != b.radicand:
            a, b = a.canonical(), b.canonical()
        if a.field is not b.field:
            big = common_field(a.field, b.field)
            a, b = a.embed(big), b.embed(big)
        return a.den == b.den and a._entries == b._entries

    __hash__ = None

    def to_complex(self):
        scale = 1.0 / math.sqrt(self.radicand)
        return [[c.to_complex() * scale for c in row] for row in self.rows]

    def __repr__(self):
        tag = "resolved" if self.resolved else "unresolved"
        return f"<UMatrix {self.size}x{self.size} over Q(zeta_{self.field.n}), {tag}>"

    def to_json(self):
        """Each entry as :meth:`CycNumber.to_json` writes it, straight from its
        tuple over one gcd with ``den``."""
        den, coeff = self.den, self.field._json
        out = {
            "size": self.size,
            "order": self.field.n,
            "entries": [coeff(xs, den) for row in self._entries for xs in row],
            "resolved": self.resolved,
        }
        if self.radicand != 1:
            out["sqrt_radicand"] = self.radicand
        return out


def _assemble(field, den, entries, radicand, resolved) -> UMatrix:
    """A matrix from entries already clean: rows of coordinate tuples in
    ``field`` over ``den`` > 0, gcd(den, every coordinate) = 1, and a
    squarefree radicand."""
    out = object.__new__(UMatrix)
    out.field = field
    out.den = den
    out._entries = entries
    out.radicand = radicand
    out.resolved = resolved
    return out


def _normalised(field, den, entries, radicand, resolved) -> UMatrix:
    """:func:`_assemble` for rows of coordinates over ``den`` > 0 that may
    share a factor with it: one running gcd over the matrix (:func:`_content`)."""
    g = _content(den, chain.from_iterable(entries))
    if g != 1:
        entries = [tuple([tuple([(i, v // g) for i, v in xs]) for xs in row]) for row in entries]
        den //= g
    return _assemble(field, den, tuple(entries), radicand, resolved)


def _product(a: UMatrix, b: UMatrix) -> UMatrix:
    """a b, normalised once and unresolved: the one product kernel.

    Both operands are lifted into the field Q(zeta_n) they share.  Every
    k-term of entry (i, j) adds its coordinate convolution into one int list
    over Z[x]/(x^(n/2) + 1), as zeta^(n/2) = -1, or over Z[x]/(x^n - 1) for
    an odd n; coordinate indices stay below the degree, at most n/2, so a
    sum of two wraps at most once.  The field reduces the list mod Phi_n
    once per entry, which for a power of two n, where that ring already is
    Z[zeta_n], leaves it as it is.  The shorter tuple of a k-term runs in
    the outer loop, so a dense entry times a root of unity costs one inner
    loop.  A zero entry costs nothing, so a diagonal or permutation factor
    costs one convolution per nonzero entry of the result.  The coordinates
    are over the product of the denominators, and squarefree radicands give
    ra rb = g^2 (ra rb / g^2), g = gcd(ra, rb): g joins the denominator, and
    no square is left to fold.
    """
    if a.field is not b.field:
        big = common_field(a.field, b.field)
        a, b = a.embed(big), b.embed(big)
    f, size = a.field, a.size
    nonzero = f._nonzero
    width, sign = (f.n // 2, -1) if f.n % 2 == 0 else (f.n, 1)
    brows = b._entries
    rows = []
    for arow in a._entries:
        sums = [None] * size
        for xs, brow in zip(arow, brows):
            if not xs:
                continue
            for j, ys in enumerate(brow):
                if ys:
                    acc = sums[j]
                    if acc is None:
                        acc = sums[j] = [0] * width
                    short, long = (xs, ys) if len(xs) <= len(ys) else (ys, xs)
                    for p, x in short:
                        for q, y in long:
                            k = p + q
                            if k < width:
                                acc[k] += x * y
                            else:
                                acc[k - width] += sign * x * y
        rows.append(tuple([() if acc is None else nonzero(acc) for acc in sums]))
    g = math.gcd(a.radicand, b.radicand)
    return _normalised(f, a.den * b.den * g, rows, a.radicand * b.radicand // (g * g), False)


def _times_scalar(a: UMatrix, c: CycNumber, d: int) -> UMatrix:
    """a c / d entry by entry in the field the two share, keeping the flag;
    d divides the radicand and moves from it into the denominator."""
    f = common_field(a.field, c.field)
    a, times, ys = a.embed(f), f._times, f.embed(c).xs
    rows = [tuple([times(xs, ys) for xs in row]) for row in a._entries]
    return _normalised(f, a.den * c.den * d, rows, a.radicand // d, a.resolved)


@lru_cache(maxsize=None)
def _root(n: int, d: int) -> CycNumber:
    """sqrt(d) in Q(zeta_n), built from Gauss sums once per (n, d).

    The keys are finite for each field order: d is squarefree with sqrt(d)
    in Q(zeta_n), so d <= n, and :meth:`UMatrix.canonical` refuses an n
    above MAX_JSON_ORDER other than the matrix's own field order."""
    return cyclotomic_field(n).sqrt_int(d)


# ---------------------------------------------------------------------------
# Generators


@lru_cache(maxsize=None)
def u_gen(m: int, g: str) -> UMatrix:
    """The explicitly known index-1 / index-2 generator matrices.

    Scalars: sqrt(i) = zeta_8, e^{-pi i/4} = zeta_8^{-1}, both inside
    Q(zeta_24).  The index-1 matrix for -I is the square of the one for S.
    The seven displayed (m, g) are the only keys kept: any other raises,
    and a raise is not cached.
    """
    f = CYC24
    i = f.zeta(6)
    z8 = f.zeta(3)
    z8i = f.zeta(-3)
    one, zero = f.one, f.zero
    if m == 1:
        if g == "T":
            return UMatrix(f, [[one, zero], [zero, i]], 1, True)
        if g == "S":
            rows = [[z8i, z8i], [z8i, -z8i]]
            return UMatrix(f, rows, 2, True)
        if g == "-I":
            s = u_gen(1, "S")
            return (s @ s)._with(resolved=True)
    if m == 2:
        if g == "T":
            return UMatrix(f, [[one, zero, zero, zero],
                               [zero, z8, zero, zero],
                               [zero, zero, -one, zero],
                               [zero, zero, zero, z8]], 1, True)
        if g == "S":
            # prefactor e^{-pi i/4}/2 = e^{-pi i/4}/sqrt(4)
            rows = [[z8i * x for x in row] for row in
                    [[one, one, one, one],
                     [one, -i, -one, i],
                     [one, -one, one, -one],
                     [one, i, -one, -i]]]
            return UMatrix(f, rows, 4, True)
        if g == "-I":
            mi = -i
            return UMatrix(f, [[mi, zero, zero, zero],
                               [zero, zero, zero, mi],
                               [zero, zero, mi, zero],
                               [zero, mi, zero, zero]], 1, True)
        if g == "ST2S":
            # (1/2i) times the displayed integer matrix
            hp = (one + i) / (2 * i)
            hm = (one - i) / (2 * i)
            return UMatrix(f, [[hp, zero, hm, zero],
                               [zero, hm, zero, hp],
                               [hm, zero, hp, zero],
                               [zero, hp, zero, hm]], 1, True)
    raise ValueError(f"no displayed generator for index {m}, letter {g!r}")


# The most entries each per-index cache keeps (_prime_powers, _labels and
# _local_letter).  Their keys grow with the indices a process uses: one
# each per index for the first two, and up to four letters per prime power
# of 2m and for 2m itself for the last.  ``verify --suite all`` and a
# weil-deep run each keep at most 15 local letters.
_PER_INDEX = 256


@lru_cache(maxsize=_PER_INDEX)
def _prime_powers(m: int) -> tuple[int, ...]:
    """The prime powers q of 2m, ascending in their primes: the 2-part first."""
    field_order(m)  # refuses an index below 1
    return tuple([p ** e for p, e in _factor(2 * m)])


@lru_cache(maxsize=_PER_INDEX)
def _labels(m: int) -> tuple[tuple[int, ...], ...]:
    """The label map: r in Z/2m to its local coordinates (x_q), one per prime
    power q of 2m, with r = sum_q (2m/q) x_q mod 2m; one tuple per r."""
    inverses = [(q, pow(2 * m // q, -1, q)) for q in _prime_powers(m)]
    return tuple(tuple([r * v % q for q, v in inverses]) for r in range(2 * m))


@lru_cache(maxsize=_PER_INDEX)
def _local_letter(m: int, q: int, name: str) -> UMatrix:
    """The letter on the factor Z/q of the discriminant form (Z/2m, r^2/4m),
    for q a divisor of 2m prime to c = 2m/q:

        U(T) = diag(e(c x^2 / 2q)),
        U(S) = e(-1/8) / sqrt(q) * (e(-c x x' / q)),

    with e(-1/8) on an even q only, so that the factors of 2m multiply out
    to U_m; -I and ST2S are their products in S and T, spelled by
    :data:`jfkernel.sl2.LETTER_SPELLINGS`.  Each letter lives in the least
    field holding its entries: Q(zeta_lcm(8, 2q)) for an even q, Q(zeta_2q)
    for an odd one, so that its products are taken there.  For q = 2m this
    is U_m itself, which :func:`u_gen_general` lifts into Q(zeta_lcm(24, 4m)).
    """
    f = cyclotomic_field(2 * q if q % 2 else math.lcm(8, 2 * q))
    n, c = f.n, 2 * m // q
    if name == "T":
        rows = [[f.zeta(n // (2 * q) * (c * x * x % (2 * q))) if x == y else f.zero
                 for y in range(q)] for x in range(q)]
        return UMatrix(f, rows, 1, True)
    if name == "S":
        e8 = 0 if q % 2 else n // 8
        rows = [[f.zeta(-e8 - n // q * c * x * y) for y in range(q)] for x in range(q)]
        return UMatrix(f, rows, q, True)
    if name not in LETTER_SPELLINGS:
        raise ValueError(f"unsupported generator letter {name!r}")
    out = reduce(operator.matmul, [_local_letter(m, q, x) for x in LETTER_SPELLINGS[name]])
    return out._with(resolved=True)


def u_gen_general(m: int, g: str) -> UMatrix:
    """Generator matrices for arbitrary positive index: the local letter of
    the whole form, q = 2m, over Q(zeta_n), n = lcm(24, 4m).

    U_m(T) is forced by the shift tau -> tau + 1 acting on exponents
    r^2/4m; the S matrix is the discrete Fourier kernel normalised by
    e^{-pi i/4}/sqrt(2m), validated numerically against the theta
    transformation law.  The other letters are their products in S and T.
    """
    big = cyclotomic_field(field_order(m))  # refuses an index below 1
    return _local_letter(m, 2 * m, g).embed(big)


def _letter_order(m: int, name: str) -> int:
    """A period of the letter matrix: U(T)^{4m} = U(-I)^4 = U(S)^8 =
    U(ST2S)^{4m} = 1.

    The first three are exact orders.  U(ST2S)^k = U(S) U(T)^{2k} U(S)
    U(-I)^{k-1} and U(-I)^2 = -1, so U(ST2S) has order 4m for odd m and 2m
    for even m.
    """
    orders = {"T": 4 * m, "-I": 4, "S": 8, "ST2S": 4 * m}
    if name not in orders:
        raise ValueError(f"unsupported generator letter {name!r}")
    return orders[name]


# The most blocks :func:`_block` keeps: ``verify --suite all`` and a
# weil-deep run each build at most about 220.  The bound counts blocks, not
# bytes: a full cache holds 0.54 MB at m <= 5, but 97.5 MB at m = 29, where
# a dense pair holds about 380 KB.
_BLOCKS = 256


@lru_cache(maxsize=_BLOCKS)
def _block(m: int, *letters: tuple[str, int]) -> tuple[UMatrix, ...]:
    """The local factors, one per prime power of 2m, of one or two reduced
    letter powers (name, power), 0 <= power < _letter_order(m, name): their
    Kronecker product is the product of the letter powers.  One letter
    raises each of its local letters to the power, so the letter's period
    reduces every factor at once; a pair multiplies its two one-letter
    blocks, which come from this same cache, factor by factor, so a missed
    pair costs one product per factor once its letters are warm."""
    if len(letters) == 1:
        name, power = letters[0]
        return tuple(_local_letter(m, q, name) ** power for q in _prime_powers(m))
    left, right = [_block(m, letter) for letter in letters]
    return tuple(map(operator.matmul, left, right))


def word_product(m: int, word: GroupWord) -> UMatrix:
    """Product of generator matrices; unresolved (true matrix up to a scalar).

    Each prime power of 2m multiplies its own small letters in its own
    field, two letters at a time: letter powers are reduced modulo the
    letter periods, so a negative or huge power costs no more than a small
    one, and each pair of reduced letters (the last one alone for an odd
    length) is one block of :func:`_block`'s bounded cache.  The factors
    are lifted into Q(zeta_n), n = lcm(24, 4m), once per word:
    :func:`_kronecker` assembles the 2m x 2m product from them, and when 2m
    is a power of two its one factor is the product.  The empty word gives
    the identity; any other word a fresh matrix, never a cached one.
    """
    big = cyclotomic_field(field_order(m))
    letters = [(name, power % _letter_order(m, name)) for name, power in word]
    if not letters:
        return UMatrix.identity(big, 2 * m)
    blocks = [_block(m, *letters[i:i + 2]) for i in range(0, len(letters), 2)]
    factors = [reduce(operator.matmul, column).embed(big) for column in zip(*blocks)]
    if len(factors) == 1:
        return factors[0]._with(resolved=False)
    return _kronecker(m, factors)


def _kronecker(m: int, factors) -> UMatrix:
    """The 2m x 2m matrix of the local factors, the 2-part first, all over
    one field: their Kronecker product, indexed by the tuples (x_q), read
    through the label map and normalised once.

    Each entry of the Kronecker product is one convolution and reduction of
    an entry of the product so far with one of the next factor.
    Denominators and radicands multiply; the radicands, one per prime, stay
    squarefree.
    """
    f = factors[0].field
    times = f._times
    table = factors[0]._entries
    for A in factors[1:]:
        table = [[times(xs, ys) for xs in arow for ys in brow] for arow in table for brow in A._entries]
    order = []
    for x in _labels(m):
        k = 0
        for xq, A in zip(x, factors):
            k = k * A.size + xq
        order.append(k)
    rows = [tuple([table[i][j] for j in order]) for i in order]
    return _normalised(f, math.prod([A.den for A in factors]), rows,
                       math.prod([A.radicand for A in factors]), False)


# ---------------------------------------------------------------------------
# Exact scalar resolution by the square-root branch cocycle


@lru_cache(maxsize=None)
def _step_signs(name: str, direction: int) -> tuple[tuple[int, ...], int]:
    """(period, correction) for h = g^direction: period[k-1] = sigma(h^k, h),
    k = 1..4, which repeats for all k >= 1 (sigma reads the signs of c, and
    of d where c = 0, and ST2S^k = (-1)^k [[1, 0], [-2k, 1]]); correction
    is sigma(g, g^-1) for direction -1, else 1.  The powers of g are the
    closed forms of :func:`jfkernel.sl2.letter_matrix`, which refuses any
    other letter, so the keys are the four letters in two directions."""
    h = letter_matrix(name, direction)
    period = tuple(sqrt_cocycle(letter_matrix(name, k * direction), h) for k in range(1, 5))
    return period, (sqrt_cocycle(letter_matrix(name, 1), h) if direction < 0 else 1)


def word_scalar(word: GroupWord) -> int:
    """The sign s with true multiplier matrix = s * word_product(m, word).

    Every letter matrix is the true multiplier of its letter, so walking the
    word P <- P h one step at a time multiplies in sigma(P, h) per step, the
    branch cocycle of :func:`jfkernel.sl2.sqrt_cocycle`.  A letter g^p is
    |p| = q steps of h = g^(sign p), and the cocycle identity telescopes them:

        prod_{k<q} sigma(P h^k, h) = sigma(P, h^q) prod_{k=1}^{q-1} sigma(h^k, h),

    whose last product runs over the period of :func:`_step_signs`.  For
    p < 0 each step also counts sigma(g, g^-1), because the stored inverse
    M(g)^-1 is sigma(g, g^-1) M(g^-1).  So a letter costs O(log q), and the
    sign does not depend on the index m.
    """
    sign = 1
    P = I2
    for name, power in word:
        if not power:
            continue
        q = abs(power)
        period, correction = _step_signs(name, 1 if power > 0 else -1)
        cycles, rest = divmod(q - 1, 4)
        hq = letter_matrix(name, power)
        sign *= (sqrt_cocycle(P, hq) * math.prod(period) ** cycles
                 * math.prod(period[:rest]) * correction ** q)
        P = P @ hq
    return sign


def resolve_scalar(m: int, word: GroupWord, U: UMatrix | None = None):
    """The true multiplier matrix of a word, and its scalar against the product.

    Returns (resolved matrix, scalar), where the scalar is the exact sign
    :func:`word_scalar` as an element of Q(zeta_24) and ``U``, the word
    product, is computed when not given.
    """
    if U is None:
        U = word_product(m, word)
    if word_scalar(word) == 1:
        return U._with(resolved=True), CYC24.one
    negated = tuple(tuple([_scaled(xs, -1) for xs in row]) for row in U._entries)
    return U._with(negated, True), -CYC24.one


def resolve(m: int, word: GroupWord) -> UMatrix:
    return resolve_scalar(m, word)[0]


# ---------------------------------------------------------------------------
# The index-2 checkerboard subgroup, its character, and the 2-dim rep


def in_X(V: UMatrix) -> bool:
    """Membership in the subgroup X: zeros on the odd checkerboard, equal
    (1,1)/(3,3) and (1,3)/(3,1) entries."""
    if V.size != 4:
        return False
    e = V._entries
    if any(e[i][j] for i in range(4) for j in range(4) if (i + j) % 2):
        return False
    return e[1][1] == e[3][3] and e[1][3] == e[3][1]


def r_char(V: UMatrix) -> CycNumber:
    """The character V -> v_{11} + v_{13} on the subgroup X."""
    if not in_X(V):
        raise NotInX("matrix is not in the checkerboard subgroup")
    return V.entry(1, 1) + V.entry(1, 3)


def rho2(word: GroupWord) -> UMatrix:
    """The 2-dimensional representation r(U_2(g))^{-1} conj(U_1(g_2)) on the
    level-2 subgroup."""
    gamma = word.to_matrix()
    if gamma.c % 2:
        raise ValueError("word does not evaluate into the level-2 subgroup")
    U2 = resolve(2, word)
    r = r_char(U2)
    gamma2 = gamma_dilate(gamma, 2)
    U1 = resolve(1, sl2_word(gamma2))
    return U1.conj().canonical().scale(r.inverse())


def omega_m(gamma: SL2Mat, m: int) -> CycNumber:
    """The determinant character det U_1(gamma_m) on the level-m subgroup."""
    gm = gamma_dilate(gamma, m)
    U1 = resolve(1, sl2_word(gm))
    return U1.det2()


def cusp_entry_values(c: int):
    """Exact (0,0) and (2,0) entries of the resolved index-2 matrix of
    S T^{-c} S, the scaling matrix of the cusp 1/c."""
    if c < 1:
        raise ValueError("c must be a positive integer")
    word = GroupWord.of(("S", 1), ("T", -c), ("S", 1))
    U = resolve(2, word)
    return U.entry(0, 0), U.entry(2, 0)


# ---------------------------------------------------------------------------
# Structure of level-m word products


def block_rows_vanish(m: int, W: UMatrix) -> bool:
    """Rows 0 and m of a level-m word product vanish outside columns {0, m}.

    Scalar-invariant, so it applies to unresolved products.
    """
    return not any(W._entries[i][j] for i in (0, m) for j in range(2 * m) if j not in (0, m))


def submatrix_proportional(m: int, W: UMatrix, W1: UMatrix) -> bool:
    """The {0,m} x {0,m} submatrix of a level-m product is proportional to
    the corresponding index-1 product of the dilated word.

    Proportionality is scalar- and radicand-invariant: cross products of
    the corner coordinates are compared exactly in the compositum field.
    """
    big = common_field(W.field, W1.field)

    def corners(U, k):
        return [big._map(U._entries[i][j], big.n // U.field.n) for i in (0, k) for j in (0, k)]

    a, b = corners(W, m), corners(W1, 1)
    times = big._times
    # equal cross products, and not the degenerate all-zero pairing
    return (all(times(a[i], b[j]) == times(a[j], b[i]) for i in range(4) for j in range(i + 1, 4))
            and any(a) and any(b))
