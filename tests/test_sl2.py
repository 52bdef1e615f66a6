import math
import random
from fractions import Fraction

import pytest

from jfkernel.sl2 import (
    GENERATOR_MATRICES,
    GroupWord,
    I2,
    MINUS_I2,
    S,
    SL2Mat,
    ST2S,
    T,
    WordAlphabetError,
    gamma_dilate,
    letter_matrix,
    random_gamma0_2_word,
    random_gamma0_m_word,
    random_sl2_word,
    sl2_word,
    sqrt_cocycle,
)


def test_det_enforced():
    with pytest.raises(ValueError):
        SL2Mat(1, 0, 0, 2)


def test_generator_relations():
    assert S @ S == MINUS_I2
    st = S @ T
    assert st @ st @ st == MINUS_I2
    assert ST2S == SL2Mat(-1, 0, 2, -1)


def test_word_parse_and_eval():
    w = GroupWord.parse("S T^2 S")
    assert w.to_matrix() == ST2S @ I2 @ I2 or w.to_matrix() == SL2Mat(-1, 0, 2, -1)
    assert GroupWord.parse("T^5").to_matrix() == T ** 5
    assert GroupWord.parse("").to_matrix() == I2
    with pytest.raises(WordAlphabetError):
        GroupWord.parse("Q")


def test_sl2_word_examples():
    assert sl2_word(T ** 5).to_matrix() == T ** 5
    assert sl2_word(S).to_matrix() == S
    g = SL2Mat(2, 1, 1, 1)
    assert sl2_word(g).to_matrix() == g


def test_sl2_word_random_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        # g S permutes the columns of g up to sign, and g T^k adds k times
        # the first column to the second, so the largest entry grows by a
        # factor of at most 1 + |k| per T letter
        g, bound = I2, 1
        for _ in range(rng.randint(1, 14)):
            if rng.random() < 0.5:
                k = rng.randint(-9, 9)
                g, bound = g @ T ** k, bound * (1 + abs(k))
            else:
                g = g @ S
        assert g.max_entry() <= bound
        assert sl2_word(g).to_matrix() == g


def test_gamma_dilate():
    assert gamma_dilate(ST2S, 2) == SL2Mat(-1, 0, 1, -1)
    assert gamma_dilate(T, 2) == T ** 2
    with pytest.raises(ValueError):
        gamma_dilate(S, 2)


def test_gamma_dilate_multiplicative():
    rng = random.Random(5)
    for _ in range(50):
        w1 = random_gamma0_2_word(rng, 6)
        w2 = random_gamma0_2_word(rng, 6)
        g1, g2 = w1.to_matrix(), w2.to_matrix()
        assert gamma_dilate(g1 @ g2, 2) == gamma_dilate(g1, 2) @ gamma_dilate(g2, 2)


def test_gamma0_2_words_stay_in_subgroup():
    rng = random.Random(7)
    for _ in range(100):
        w = random_gamma0_2_word(rng)
        g = w.to_matrix()
        assert g.c % 2 == 0
        assert len(w) <= 12
        assert g.max_entry() <= 300


def test_gamma0_m_word_dilation():
    rng = random.Random(9)
    for m in (2, 3, 5, 6):
        for _ in range(20):
            w, wm = random_gamma0_m_word(rng, m)
            g = w.to_matrix()
            assert g.c % m == 0 and g.max_entry() < 1500
            assert gamma_dilate(g, m) == wm.to_matrix()


def test_sqrt_cocycle_matches_principal_square_roots():
    import cmath

    def j(g, tau):
        return g.c * tau + g.d

    rng = random.Random(41)
    mats = [I2, MINUS_I2, S, S.inv(), T, ST2S, ST2S.inv()]
    mats += [random_sl2_word(rng, 8).to_matrix() for _ in range(30)]
    for A in mats:
        for B in mats[:12]:
            for tau in (0.3 + 0.8j, -1.7 + 0.2j):
                val = (cmath.sqrt(j(A, B.act(tau))) * cmath.sqrt(j(B, tau))
                       / cmath.sqrt(j(A @ B, tau)))
                assert abs(val - sqrt_cocycle(A, B)) < 1e-9, (A, B, tau)
    assert sqrt_cocycle(S, S) == 1
    assert sqrt_cocycle(MINUS_I2, MINUS_I2) == -1


def test_letter_matrix_is_the_generator_power():
    for name, g in GENERATOR_MATRICES.items():
        for p in list(range(-13, 14)) + [10 ** 9 + 1, -10 ** 9 - 2]:
            assert letter_matrix(name, p) == g ** p, (name, p)
    with pytest.raises(WordAlphabetError):
        letter_matrix("U", 1)


def test_powers_match_the_repeated_product():
    rng = random.Random(13)
    for g in [S, T, ST2S, MINUS_I2, sl2_word(SL2Mat(5, 2, 7, 3)).to_matrix(),
              random_sl2_word(rng, 4).to_matrix()]:
        assert g ** 0 == I2
        up, down = I2, I2
        for e in range(1, 13):
            up, down = up @ g, down @ g.inv()
            assert g ** e == up, (g, e)
            if e <= 6:
                assert g ** -e == down, (g, -e)


def test_sl2_word_rounds_to_the_nearest_integer_at_every_sign():
    rng = random.Random(71)
    for _ in range(300):
        c = rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)
        d = rng.randint(-10 ** 6, 10 ** 6)
        while math.gcd(c, d) != 1:
            d += 1
        a = pow(d, -1, abs(c)) + abs(c) * rng.randint(-3, 3)
        gamma = SL2Mat(a, (a * d - 1) // c, c, d)
        # the reduction with its nearest integer taken through Fractions
        letters, g = [], gamma
        while g.c:
            q = math.floor(Fraction(g.a, g.c) + Fraction(1, 2))
            letters += [("T", q)] * (q != 0) + [("S", 1)]
            g = S.inv() @ T ** -q @ g
        assert sl2_word(gamma).letters[:len(letters)] == tuple(letters)
