"""Integer SL2 matrices, generator words, and word decomposition.

Words are sequences of named generators with integer powers.  The alphabet
in use depends on context: {S, T} for the full modular group, {-I, T, ST2S}
for the index-2 congruence subgroup, and {T, S T^{ma} S} blocks for sampling
the level-m subgroup.  Every letter evaluates to an integer matrix with
determinant one, so a word can always be collapsed with
:meth:`GroupWord.to_matrix`.
"""

from __future__ import annotations

import operator
import random

from ._value import Value, power


class SL2Mat(Value):
    """A 2x2 integer matrix [[a, b], [c, d]] with determinant 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        self.a, self.b, self.c, self.d = a, b, c, d
        if a * d - b * c != 1:
            raise ValueError(f"determinant is not 1: {self}")

    def __matmul__(self, other: "SL2Mat") -> "SL2Mat":
        return SL2Mat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "SL2Mat":
        return SL2Mat(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "SL2Mat":
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n, operator.matmul) if n else I2

    def max_entry(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def act(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def act_jacobi(self, tau: complex, z: complex):
        den = self.c * tau + self.d
        return (self.a * tau + self.b) / den, z / den

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


I2 = SL2Mat(1, 0, 0, 1)
S = SL2Mat(0, -1, 1, 0)
T = SL2Mat(1, 1, 0, 1)
MINUS_I2 = SL2Mat(-1, 0, 0, -1)
ST2S = S @ (T ** 2) @ S  # [[-1,0],[2,-1]], generator of the level-2 subgroup

GENERATOR_MATRICES = {"S": S, "T": T, "-I": MINUS_I2, "ST2S": ST2S}

# The letters beyond S and T, spelled in them: -I = S S and ST2S = S T T S.
# The Weil layer builds these letters' matrices as these products.
LETTER_SPELLINGS = {"-I": ("S", "S"), "ST2S": ("S", "T", "T", "S")}

GAMMA0_2_ALPHABET = ("-I", "T", "ST2S")
SL2_ALPHABET = ("S", "T")


class WordAlphabetError(ValueError):
    """A word uses a letter outside the supported alphabet."""


class GroupWord(Value):
    """A product of named generators with integer powers: ``letters`` is a
    tuple of (name, power) pairs."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[str, int], ...]):
        self.letters = letters

    @staticmethod
    def of(*letters) -> "GroupWord":
        return GroupWord(tuple((name, int(p)) for name, p in letters if p))

    @staticmethod
    def parse(text: str) -> "GroupWord":
        """Parse "S T^2 -I ST2S^-1" style words (plain letter means power 1)."""
        letters = []
        for token in text.split():
            if "^" in token:
                name, p = token.split("^", 1)
                power = int(p)
            else:
                name, power = token, 1
            if name not in GENERATOR_MATRICES:
                raise WordAlphabetError(f"unknown generator {name!r}")
            if power:
                letters.append((name, power))
        return GroupWord(tuple(letters))

    def __str__(self):
        return " ".join(n if p == 1 else f"{n}^{p}" for n, p in self.letters) or "<empty>"

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __add__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def to_matrix(self) -> SL2Mat:
        out = I2
        for name, power in self.letters:
            out = out @ letter_matrix(name, power)
        return out


def letter_matrix(name: str, p: int) -> SL2Mat:
    """The matrix of the letter name^p in closed form: T^p = [[1, p], [0, 1]],
    ST2S^p = (-1)^p [[1, 0], [-2p, 1]], S^p by p mod 4 and -I^p by p mod 2."""
    if name == "T":
        return SL2Mat(1, p, 0, 1)
    if name == "ST2S":
        s = -1 if p % 2 else 1
        return SL2Mat(s, 0, -2 * p * s, s)
    if name == "S":
        return (I2, S, MINUS_I2, S.inv())[p % 4]
    if name == "-I":
        return MINUS_I2 if p % 2 else I2
    raise WordAlphabetError(f"unknown generator {name!r}")


def _arg_range(g: SL2Mat) -> tuple[int, int]:
    """The values of Arg(c tau + d) over the upper half-plane, in units of pi.

    (lo, lo + 1) is an open interval; (lo, lo) is the single point lo.
    """
    if g.c:
        return (0, 1) if g.c > 0 else (-1, 0)
    return (0, 0) if g.d > 0 else (1, 1)


def sqrt_cocycle(A: SL2Mat, B: SL2Mat) -> int:
    """The square-root branch cocycle of the principal branch, a sign:

        sigma(A, B) = sqrt j(A, B tau) sqrt j(B, tau) / sqrt j(AB, tau),

    with j(g, tau) = c tau + d.  Since j(A, B tau) j(B, tau) = j(AB, tau),
    the three principal arguments sum to 2 pi k, and sigma = (-1)^k.  The
    sum lies in the interval sum of their ranges over the upper half-plane,
    which holds exactly one even multiple of pi, so the signs of the integer
    entries decide sigma for every tau at once.
    """
    (a0, a1), (b0, b1), (p0, p1) = _arg_range(A), _arg_range(B), _arg_range(A @ B)
    lo, hi = a0 + b0 - p1, a1 + b1 - p0
    # the interval is closed only when all three ranges are points
    ks = range(lo, hi + 1) if lo == hi else range(lo + 1, hi)
    evens = [k for k in ks if k % 2 == 0]
    if len(evens) != 1:
        raise ArithmeticError(f"branch cocycle of {A} and {B} is not determined")
    return -1 if evens[0] % 4 else 1


def sl2_word(gamma: SL2Mat) -> GroupWord:
    """Express gamma as a word in S and T (continued-fraction reduction).

    The returned word evaluates back to gamma exactly.
    """
    letters: list[tuple[str, int]] = []
    g = gamma
    # Reduce the first column by nearest-integer division; each step records
    # g = T^q S g', shrinking |c| at least by half.
    while g.c != 0:
        q = (2 * g.a + g.c) // (2 * g.c)  # floor(a/c + 1/2)
        if q:
            letters.append(("T", q))
        letters.append(("S", 1))
        # g' = S^{-1} T^{-q} g
        g = S.inv() @ letter_matrix("T", -q) @ g
    if g.a == 1:
        if g.b:
            letters.append(("T", g.b))
    else:
        # g = -T^{-b}: use S^2 = -I
        letters.append(("S", 2))
        if g.b:
            letters.append(("T", -g.b))
    word = GroupWord(tuple(letters))
    if word.to_matrix() != gamma:
        raise AssertionError(f"word reduction failed for {gamma}")
    return word


def gamma_dilate(gamma: SL2Mat, m: int) -> SL2Mat:
    """The level-m conjugate [[a, bm], [c/m, d]]; requires m | c."""
    if gamma.c % m:
        raise ValueError(f"lower-left entry {gamma.c} is not divisible by {m}")
    return SL2Mat(gamma.a, gamma.b * m, gamma.c // m, gamma.d)


# ---------------------------------------------------------------------------
# Random word samplers (used by the property suites)


def _random_word(rng: random.Random, alphabet, max_len: int) -> GroupWord:
    """A random word over ``alphabet`` of length <= max_len whose matrix has
    all entries at most 300, which keeps numeric evaluation well-conditioned.

    S letters get power 1 and every other letter a power in {-2, -1, 1, 2};
    a word with a larger entry is drawn again.
    """
    while True:
        letters = []
        for _ in range(rng.randint(1, max_len)):
            name = rng.choice(alphabet)
            letters.append((name, 1 if name == "S" else rng.choice((-2, -1, 1, 2))))
        word = GroupWord(tuple(letters))
        if word.to_matrix().max_entry() <= 300:
            return word


def random_gamma0_2_word(rng: random.Random, max_len: int = 12) -> GroupWord:
    """A random word over {-I, T, ST2S}; see :func:`_random_word`."""
    return _random_word(rng, GAMMA0_2_ALPHABET, max_len)


def random_sl2_word(rng: random.Random, max_len: int = 10) -> GroupWord:
    """A random word over {S, T}; see :func:`_random_word`."""
    return _random_word(rng, SL2_ALPHABET, max_len)


def random_gamma0_m_word(rng: random.Random, m: int):
    """A random element of the level-m subgroup as (word, dilated word).

    One to four blocks alternate T^b (|b| <= 3) and S T^{m a} S (|a| <= 2);
    the dilated word replaces them with T^{b m} and S T^{a} S, realising the
    gamma -> gamma_m map letter by letter.  Every block lies in the level-m
    subgroup, so no draw is rejected; for m <= 6 the entries stay below 1500.
    """
    letters: list[tuple[str, int]] = []
    dilated: list[tuple[str, int]] = []
    for k in range(rng.randint(1, 4)):
        if k % 2 == 0:
            b = rng.randint(-3, 3)
            if b:
                letters.append(("T", b))
                dilated.append(("T", b * m))
        else:
            a = rng.randint(-2, 2)
            if a:
                letters.extend([("S", 1), ("T", m * a), ("S", 1)])
                dilated.extend([("S", 1), ("T", a), ("S", 1)])
    word = GroupWord(tuple(letters))
    word_m = GroupWord(tuple(dilated))
    if gamma_dilate(word.to_matrix(), m) != word_m.to_matrix():
        raise AssertionError("dilated word mismatch")
    return word, word_m
