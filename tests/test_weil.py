import math
import random
import time
from fractions import Fraction

import pytest

from jfkernel import weil
from jfkernel.cyclotomic import (CYC24, CyclotomicField, _sqrt_order, _square_part, cyclotomic_field,
                                from_rational, imag_unit)
from jfkernel.numeric import SnapFailed, fit_scalar
from jfkernel.sl2 import (
    GENERATOR_MATRICES,
    I2,
    GroupWord,
    S,
    SL2Mat,
    T,
    random_gamma0_2_word,
    random_gamma0_m_word,
    random_sl2_word,
    sl2_word,
    sqrt_cocycle,
)
from jfkernel.weil import (
    NotInX,
    UMatrix,
    _block,
    _letter_order,
    _local_letter,
    _prime_powers,
    block_rows_vanish,
    cusp_entry_values,
    field_order,
    in_X,
    omega_m,
    r_char,
    resolve,
    resolve_scalar,
    rho2,
    submatrix_proportional,
    u_gen,
    u_gen_general,
    word_product,
    word_scalar,
)

I = imag_unit()
Z8 = CYC24.zeta(3)
LETTERS = ("S", "T", "-I", "ST2S")


def _matmul_reference(a, b):
    """The entry-by-entry triple loop over CycNumber products and sums."""
    if a.field is not b.field:
        n = a.field.n * b.field.n // math.gcd(a.field.n, b.field.n)
        big = cyclotomic_field(n)
        a, b = a.embed(big), b.embed(big)
    size = a.size
    # the CycNumber views, built once per operand
    arows, brows = a.rows, b.rows
    rows = []
    for i in range(size):
        arow = arows[i]
        row = []
        for j in range(size):
            acc = a.field.zero
            for k in range(size):
                if not arow[k].is_zero() and not brows[k][j].is_zero():
                    acc = acc + arow[k] * brows[k][j]
            row.append(acc)
        rows.append(row)
    return UMatrix(a.field, rows, a.radicand * b.radicand, resolved=False)


def _reference_word_product(m, word):
    """Left to right, one letter (or its conjugate transpose) at a time."""
    out = UMatrix.identity(cyclotomic_field(field_order(m)), 2 * m)
    for name, power in word:
        g = u_gen_general(m, name)
        if power < 0:
            g = g.conj_transpose()
        for _ in range(abs(power)):
            out = _matmul_reference(out, g)
    return out


def _assert_same_product(a, b):
    got, want = a @ b, _matmul_reference(a, b)
    assert got.field is want.field
    assert got.rows == want.rows and got.radicand == want.radicand


def test_displayed_generators():
    t1 = u_gen(1, "T")
    assert t1.entry(0, 0) == 1 and t1.entry(1, 1) == I
    t2 = u_gen(2, "T")
    assert t2.entry(1, 1) == Z8 and t2.entry(2, 2) == -1 and t2.entry(3, 3) == Z8
    s1 = u_gen(1, "S")
    # e^{-pi i/4}/sqrt(2) entries
    assert s1.radicand == 2
    assert s1.rows[0][0] == CYC24.zeta(-3)
    assert s1.rows[1][1] == -CYC24.zeta(-3)


def test_u1_minus_identity_is_s_squared():
    m = u_gen(1, "-I")
    assert m.entry(0, 0) == -I and m.entry(1, 1) == -I and m.entry(0, 1) == 0


def test_u2_s_squared_is_minus_identity_display():
    s = u_gen(2, "S")
    sq = s @ s
    assert sq == u_gen(2, "-I")


def test_general_matches_displayed():
    for g in ("S", "T", "-I"):
        assert u_gen_general(1, g) == u_gen(1, g)
        assert u_gen_general(2, g) == u_gen(2, g)
    # S T T S, as built from the general S and T, is the displayed matrix
    # entry for entry, with no radicand left
    st2s = u_gen_general(2, "ST2S")
    assert st2s.radicand == 1 and st2s.rows == u_gen(2, "ST2S").rows


def test_general_m3_T_entries():
    t = u_gen_general(3, "T")
    f = t.field
    # diag entries e^{2 pi i r^2 / 12}
    for r in range(6):
        assert t.rows[r][r] == f.zeta((f.n // 12) * (r * r % 12))


def test_unitarity_of_word_products():
    rng = random.Random(3)
    for m in (1, 2, 3):
        for _ in range(5):
            if m == 2:
                w = random_gamma0_2_word(rng, 6)
            else:
                w, _ = random_gamma0_m_word(rng, m)
            W = word_product(m, w)
            assert W @ W.conj_transpose() == UMatrix.identity(W.field, 2 * m)


def test_word_product_ss_m1():
    w = GroupWord.of(("S", 1), ("S", 1))
    W = word_product(1, w)
    assert W == u_gen(1, "-I")
    assert W.entry(0, 0) == -I


def test_empty_word_is_identity():
    W = word_product(2, GroupWord.of())
    assert W == UMatrix.identity(W.field, 4)


def test_word_st_cubed_is_scalar_times_minus_identity():
    w = GroupWord.of(("S", 1), ("T", 1), ("S", 1), ("T", 1), ("S", 1), ("T", 1))
    W = word_product(1, w)
    target = u_gen(1, "-I")
    ratios = set()
    Wc, tc = W.canonical(), target.canonical()
    for i in range(2):
        for j in range(2):
            if not tc.rows[i][j].is_zero():
                ratios.add(str(Wc.rows[i][j] / tc.rows[i][j]))
    assert len(ratios) == 1
    sigma = Wc.rows[0][0] / tc.rows[0][0]
    assert (sigma ** 8) == 1


def test_resolve_generators_scalar_one():
    for m, name in [(1, "S"), (1, "T"), (2, "S"), (2, "T"), (2, "ST2S"), (2, "-I")]:
        _, sigma = resolve_scalar(m, GroupWord.of((name, 1)))
        assert sigma == 1, (m, name)


def test_resolve_ss_m1():
    w = GroupWord.of(("S", 1), ("S", 1))
    R, sigma = resolve_scalar(1, w)
    assert sigma == 1
    assert R == u_gen(1, "-I")


def test_snap_failure_on_corrupted_matrix():
    w = GroupWord.of(("T", 1))
    bad = u_gen(1, "T").scale(from_rational(2))
    with pytest.raises(SnapFailed):
        fit_scalar(1, w, bad)


def test_s_squared_matches_st_cubed_up_to_scalar():
    s = u_gen(1, "S")
    t = u_gen(1, "T")
    a = s @ s
    b = (s @ t) ** 3
    ac, bc = a.canonical(), b.canonical()
    ratios = set()
    for i in range(2):
        for j in range(2):
            if ac.rows[i][j].is_zero():
                assert bc.rows[i][j].is_zero()
            else:
                ratios.add(str(bc.rows[i][j] / ac.rows[i][j]))
    assert len(ratios) == 1
    sigma = bc.rows[0][0] / ac.rows[0][0]
    assert sigma ** 8 == 1


def test_resolve_sample_point_independence():
    rng = random.Random(11)
    for _ in range(10):
        w = random_gamma0_2_word(rng, 8)
        U = word_product(2, w)
        _, exact = resolve_scalar(2, w, U)
        s1 = fit_scalar(2, w, U, 0.11 + 1.21j, 0.07 + 0.13j)
        s2 = fit_scalar(2, w, U, -0.23 + 0.87j, 0.11 - 0.05j)
        assert s1 == exact and s2 == exact


def test_exact_scalar_matches_numeric_fit():
    # single letters with small powers, then seeded words over both
    # alphabets; the fit runs at the default oracle point
    rng = random.Random(31)
    words = [(m, GroupWord.of((name, p)))
             for m in (1, 2, 3)
             for name in ("S", "T", "-I", "ST2S")
             for p in (-2, -1, 1, 2, 3)]
    for m in (1, 2, 3, 5):
        for i in range(24):
            if i % 3 == 0:
                w = random_sl2_word(rng, 10)
            elif i % 3 == 1:
                w = random_gamma0_2_word(rng, 10)
            else:
                w, _ = random_gamma0_m_word(rng, m)
            words.append((m, w))
    assert len(words) >= 100
    assert any(w.to_matrix().c < 0 for _, w in words)
    for m, w in words:
        U = word_product(m, w)
        assert fit_scalar(m, w, U) == resolve_scalar(m, w, U)[1], (m, str(w))


def test_letter_matrices_are_true_multipliers():
    for m in (1, 2, 3, 5):
        for name in ("S", "T", "-I", "ST2S"):
            w = GroupWord.of((name, 1))
            assert fit_scalar(m, w, u_gen_general(m, name)) == 1, (m, name)
    # the displayed index-2 matrix is the product S T^2 S exactly
    s, t = u_gen_general(2, "S"), u_gen_general(2, "T")
    assert u_gen(2, "ST2S") == s @ t @ t @ s


def test_word_product_is_left_to_right_letter_product():
    rng = random.Random(37)
    small, large = (-3, -2, -1, 1, 2, 3), (-9, -8, -7, -6, -5, -4, 4, 5, 6, 7, 8, 9)
    for m, powers in [(1, small), (2, small), (3, small), (5, small), (7, large)]:
        for _ in range(3):
            w = GroupWord.of(*((rng.choice(LETTERS), rng.choice(powers)) for _ in range(5)))
            out = UMatrix.identity(cyclotomic_field(field_order(m)), 2 * m)
            for name, power in w:
                g = u_gen_general(m, name)
                if power < 0:
                    g = g.conj_transpose()
                for _ in range(abs(power)):
                    out = out @ g
            assert word_product(m, w) == out, (m, str(w))


def test_matmul_matches_reference_on_letters_and_words():
    rng = random.Random(41)
    for m in (1, 2, 3, 5, 7):
        letters = [u_gen_general(m, name) for name in LETTERS]
        for a in letters:
            for b in letters:
                _assert_same_product(a, b)
        words = [word_product(m, GroupWord.of(*((rng.choice(LETTERS), rng.choice((-2, -1, 1, 2, 3)))
                                                 for _ in range(4))))
                 for _ in range(20)]
        for a, b in zip(words, words[1:] + words[:1]):
            _assert_same_product(a, b)
        for a, b in zip(words, letters * 5):
            _assert_same_product(a, b)
        for a, b in zip(letters, words):
            _assert_same_product(a, b)


def test_matmul_matches_reference_on_special_entries():
    st2s = u_gen(2, "ST2S")
    assert {c.den for row in st2s.rows for c in row} == {1, 2}
    _assert_same_product(st2s, st2s)
    _assert_same_product(st2s, u_gen(2, "S"))
    # radicand-2m factors: the radicand product folds its square part
    for m in (1, 3, 5, 7):
        s = u_gen_general(m, "S")
        assert s.radicand == 2 * m
        _assert_same_product(s, s)
        _assert_same_product(s, s @ u_gen_general(m, "T"))
    zero = UMatrix(CYC24, [[CYC24.zero] * 4 for _ in range(4)])
    _assert_same_product(zero, u_gen(2, "S"))
    _assert_same_product(u_gen(2, "T"), zero)
    assert (zero @ zero).rows == zero.rows
    # Q(zeta_24) x Q(zeta_120): both operands embed into Q(zeta_120)
    rng = random.Random(43)
    f120 = cyclotomic_field(120)
    mixed = UMatrix(f120, [[f120.element([rng.randint(-3, 3) for _ in range(32)], rng.randint(1, 6))
                            for _ in range(4)] for _ in range(4)], 3)
    _assert_same_product(u_gen(2, "S"), mixed)
    _assert_same_product(mixed, u_gen(2, "ST2S"))
    assert (u_gen(2, "S") @ mixed).field is f120


def _assert_layout(U):
    """The stored form: a positive int ``den`` sharing no factor with every
    coordinate, a squarefree radicand, and each entry the tuple of its
    nonzero int coordinates (i, v), ascending in i below the degree, () for
    zero; it is the form the constructor gives for ``U.rows``."""
    assert type(U.den) is int and U.den > 0
    assert type(U._entries) is tuple and len(U._entries) == U.size
    g = U.den
    for row in U._entries:
        assert type(row) is tuple and len(row) == U.size
        for xs in row:
            assert type(xs) is tuple
            index = [i for i, _v in xs]
            assert index == sorted(set(index)) and all(0 <= i < U.field.degree for i in index)
            assert all(type(v) is int and v for _i, v in xs)
            g = math.gcd(g, *[v for _i, v in xs])
    assert g == 1
    assert _square_part(U.radicand) == (1, U.radicand)
    again = UMatrix(U.field, U.rows, U.radicand, U.resolved)
    assert (again.den, again._entries) == (U.den, U._entries)


def _random_matrix(rng, field, size, radicand=1):
    """Entries with small coordinates over small denominators, a third zero."""
    return UMatrix(field, [[field.zero if rng.random() < 1 / 3 else
                            field.element([rng.randint(-3, 3) for _ in range(field.degree)],
                                          rng.randint(1, 6))
                            for _ in range(size)] for _ in range(size)], radicand)


def _rows_of(U):
    return [list(row) for row in U.rows]


def test_right_operand_layout_and_products_match_the_reference():
    # the inputs of the former right-operand caching test
    rng = random.Random(53)
    for m in (1, 2, 5):
        b = word_product(m, GroupWord.of(("S", 1), ("T", 3), ("ST2S", -1)))
        lefts = [u_gen_general(m, "S"), u_gen_general(m, "T"),
                 word_product(m, GroupWord.of(("T", -1), ("S", 1)))]
        for U in [b, *lefts]:
            _assert_layout(U)
        for a in lefts:
            _assert_same_product(a, b)
            _assert_layout(a @ b)
        # an embedded copy holds the lifted coordinates over the same den
        big = cyclotomic_field(2 * b.field.n)
        wide = b.embed(big)
        _assert_layout(wide)
        assert wide.field is big and wide.den == b.den
        assert wide.rows == tuple(tuple(big.embed(c) for c in row) for row in b.rows)
        assert wide == b
        _assert_same_product(lefts[0].embed(big), wide)
        _assert_same_product(wide, wide)
        _assert_layout(wide @ wide)
        # a cross-field product embeds both operands
        f = b.field
        mixed = UMatrix(f, [[f.element([rng.randint(-3, 3) for _ in range(f.degree)],
                                       rng.randint(1, 6)) for _ in range(2 * m)]
                            for _ in range(2 * m)])
        _assert_layout(mixed)
        _assert_same_product(mixed, b)
        _assert_same_product(mixed.embed(big), b)
        _assert_layout(mixed.embed(big) @ b)


def test_left_operand_layout_and_products_match_the_reference():
    # the inputs of the former left-operand caching test
    for m in (1, 2, 5):
        a = word_product(m, GroupWord.of(("ST2S", 1), ("T", -2), ("S", 1)))
        rights = [u_gen_general(m, "T"), u_gen_general(m, "S"),
                  word_product(m, GroupWord.of(("S", -1), ("T", 1)))]
        _assert_layout(a)
        for b in rights:
            _assert_same_product(a, b)
            _assert_layout(a @ b)
        _assert_same_product(a, a)
        cube = a ** 3
        _assert_layout(cube)
        assert cube == _matmul_reference(_matmul_reference(a, a), a)


# an odd order, whose products wrap in Z[x]/(x^n - 1), a power of two, where
# Z[x]/(x^(n/2) + 1) needs no reduction, and the fields of the word products
FIELDS = (5, 8, 15, 24, 40, 120)
RADICANDS = (1, 2, 3, 6, 10)


def _has_root(field, d):
    """sqrt(d) lies in Q(zeta_n): the conductor of Q(sqrt(d)) divides n."""
    return field.n % _sqrt_order(d) == 0


@pytest.mark.parametrize("n", FIELDS)
def test_every_operation_keeps_the_layout_and_matches_cycnumber_references(n):
    rng = random.Random(59 + n)
    f = cyclotomic_field(n)
    for radicand in RADICANDS:
        for size in (2, 3):
            A = _random_matrix(rng, f, size, radicand)
            B = _random_matrix(rng, f, size, rng.choice(RADICANDS))
            rows = _rows_of(A)
            for U in (A, B, UMatrix.identity(f, size)):
                _assert_layout(U)
            # products and powers, negative ones included
            _assert_same_product(A, B)
            _assert_layout(A @ B)
            want = UMatrix.identity(f, size)
            for e in range(1, 5):
                want = _matmul_reference(want, A)
                got = A ** e
                _assert_layout(got)
                assert got.rows == want.rows and got.radicand == want.radicand, e
            inverse_power = A ** -2
            _assert_layout(inverse_power)
            ct = A.conj_transpose()
            assert inverse_power == _matmul_reference(ct, ct)
            # conjugation, transposition and their composite, entry by entry
            conj = A.conj()
            _assert_layout(conj)
            assert _rows_of(conj) == [[c.conj() for c in row] for row in rows]
            assert conj.radicand == A.radicand
            transpose = A.transpose()
            _assert_layout(transpose)
            assert _rows_of(transpose) == [list(col) for col in zip(*rows)]
            _assert_layout(ct)
            assert _rows_of(ct) == [[c.conj() for c in col] for col in zip(*rows)]
            # embedding into a larger field lifts each entry
            big = cyclotomic_field(2 * n)
            wide = A.embed(big)
            _assert_layout(wide)
            assert _rows_of(wide) == [[big.embed(c) for c in row] for row in rows]
            assert A.embed(f) is A
            # scaling by an element, one of another field, a rational and zero
            c = f.element([rng.randint(-2, 2) for _ in range(f.degree)], rng.randint(1, 4))
            for x in (c, CYC24.zeta(5), from_rational(Fraction(-3, 7)), f.zero):
                scaled = A.scale(x)
                _assert_layout(scaled)
                assert _rows_of(scaled) == [[e * x for e in row] for row in rows], x
                assert scaled.radicand == A.radicand
            # the folded form, where sqrt(radicand) lies in the field
            if _has_root(f, radicand):
                canonical = A.canonical()
                _assert_layout(canonical)
                root = f.sqrt_int(radicand) / radicand
                want_rows = [[e * root for e in row] for row in rows]
                assert canonical.radicand == 1 and _rows_of(canonical) == want_rows
                assert [[A.entry(i, j) for j in range(size)] for i in range(size)] == want_rows
                assert canonical == A and A == canonical
                assert canonical.embed(big) == A and A == canonical.embed(big)
            # the CycNumber edge
            assert A.to_json()["entries"] == [e.to_json() for row in rows for e in row]
            assert A.to_json().get("sqrt_radicand", 1) == A.radicand
            if size == 2:
                det = (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) / A.radicand
                assert A.det2() == det


def test_constructor_reads_rows_and_folds_squares_into_the_layout():
    rng = random.Random(61)
    for n in FIELDS:
        f = cyclotomic_field(n)
        for radicand in RADICANDS:
            rows = _rows_of(_random_matrix(rng, f, 3))
            for s in (1, 2, 3):
                U = UMatrix(f, rows, radicand * s * s)
                _assert_layout(U)
                assert U.radicand == radicand
                assert _rows_of(U) == [[c / s for c in row] for row in rows]
                # a factor s of every entry cancels the folded s
                scaled = UMatrix(f, [[c * s for c in row] for row in rows], radicand * s * s)
                _assert_layout(scaled)
                assert (scaled.den, scaled._entries) == (UMatrix(f, rows, radicand).den,
                                                         UMatrix(f, rows, radicand)._entries)
    zero = UMatrix(CYC24, [[CYC24.zero] * 3 for _ in range(3)], 8)
    _assert_layout(zero)
    assert zero.den == 1 and zero._entries == (((),) * 3,) * 3


def test_equality_across_fields_and_radicands():
    rng = random.Random(67)
    f24, f40, f120 = (cyclotomic_field(n) for n in (24, 40, 120))
    for radicand in (1, 2, 3, 6):
        A = _random_matrix(rng, f24, 3, radicand)
        # across fields: the same matrix embedded, and a changed entry
        for big in (f120, cyclotomic_field(48)):
            wide = A.embed(big)
            assert wide == A and A == wide
            rows = _rows_of(wide)
            rows[1][2] = rows[1][2] + big.zeta(1)
            assert UMatrix(big, rows, radicand) != A
        # across radicands: sqrt(d)/d folded into the entries is the same matrix
        root = f24.sqrt_int(radicand) / radicand
        folded = UMatrix(f24, [[c * root for c in row] for row in _rows_of(A)])
        assert folded == A and A == folded
        assert UMatrix(f24, _rows_of(A), radicand * 4) != A
    # radicands 2 and 10 over Q(zeta_40), and a matrix over Q(zeta_24)
    # against one over Q(zeta_40), equal in Q(zeta_120)
    for radicand in (2, 10):
        A = _random_matrix(rng, f40, 2, radicand)
        root = f40.sqrt_int(radicand) / radicand
        assert UMatrix(f40, [[c * root for c in row] for row in _rows_of(A)]) == A
    rational = UMatrix(f24, [[f24.one, f24.from_fraction(Fraction(1, 3))], [f24.zero, -f24.one]], 2)
    same = UMatrix(f40, [[f40.one, f40.from_fraction(Fraction(1, 3))], [f40.zero, -f40.one]], 2)
    assert rational == same and same == rational
    assert rational != UMatrix(f40, _rows_of(same), 10)
    assert rational != UMatrix.identity(f24, 3)


def test_constructor_lifts_entries_of_a_subfield_and_refuses_others():
    f120 = cyclotomic_field(120)
    zero, one = CYC24.zero, CYC24.one
    U = UMatrix(f120, [[CYC24.zeta(1), zero], [zero, one]])
    _assert_layout(U)
    assert U.field is f120 and U.rows[0][0] == f120.zeta(5)
    assert (U @ U).entry(0, 0) == f120.zeta(10) == CYC24.zeta(2)
    assert (U @ U).entry(0, 0) != f120.zeta(2)
    assert U == UMatrix(f120, [[f120.zeta(5), f120.zero], [f120.zero, f120.one]])
    assert U != UMatrix(f120, [[f120.zeta(1), f120.zero], [f120.zero, f120.one]])
    with pytest.raises(ValueError, match="no embedding"):
        UMatrix(cyclotomic_field(40), [[CYC24.zeta(1), zero], [zero, one]])
    with pytest.raises(ValueError, match="no embedding"):
        UMatrix(CYC24, [[f120.zeta(1)]])


def test_resolved_sign_negates_the_coordinates():
    rng = random.Random(71)
    signs = set()
    for m in (1, 2, 3, 5):
        for _ in range(8):
            w = random_sl2_word(rng, 6)
            U = word_product(m, w)
            R, scalar = resolve_scalar(m, w, U)
            _assert_layout(R)
            assert R.resolved and (R.den, R.radicand, R.field) == (U.den, U.radicand, U.field)
            sign = word_scalar(w)
            signs.add(sign)
            assert scalar == sign
            assert _rows_of(R) == [[c * sign for c in row] for row in U.rows]
    assert signs == {1, -1}


def _letterwise_word_product(m, word):
    """The product of the local factors without blocks and without periods:
    on each prime power q of 2m, the letter powers of the word by square
    and multiply, multiplied one at a time left to right; then the factors
    are lifted and assembled once."""
    big = cyclotomic_field(field_order(m))
    factors = []
    for q in _prime_powers(m):
        out = UMatrix.identity(_local_letter(m, q, "T").field, q)
        for name, power in word:
            out = out @ _local_letter(m, q, name) ** power
        factors.append(out.embed(big))
    return weil._kronecker(m, factors) if len(factors) > 1 else factors[0]


def _cached_blocks(m, word):
    """Every block the word's product reads from the block cache: its
    one-letter blocks and its pairs, the last letter alone for an odd
    length."""
    letters = [(name, power % _letter_order(m, name)) for name, power in word]
    pairs = [letters[i:i + 2] for i in range(0, len(letters), 2)]
    return [U for block in [*([x] for x in letters), *pairs] for U in _block(m, *block)]


def test_word_product_flags_and_fresh_objects():
    for m in (1, 2, 3):
        identity = UMatrix.identity(cyclotomic_field(field_order(m)), 2 * m)
        empty = word_product(m, GroupWord.of())
        assert empty.resolved is True and empty == identity
        for text in ("S", "T", "ST2S^-1", "T^%d" % (4 * m), "S^8", "-I^4", "S T"):
            word = GroupWord.parse(text)
            W = word_product(m, word)
            assert W.resolved is False, (m, text)
            want = _reference_word_product(m, word)
            assert W.rows == want.rows and W.radicand == want.radicand, (m, text)
            assert all(W is not factor for factor in _cached_blocks(m, word))
        # a zero-power word is the identity matrix, but unresolved
        assert word_product(m, GroupWord.parse("S^8")) == identity
        # the cached local factors keep their own flag after a word has used them
        assert all(factor.resolved for factor in _block(m, ("S", 0)))
    # words of every length 0-13, odd and even, at unsplit and split indices,
    # with zero and negative powers, some 10^6 periods away from the small
    # power the reference multiplies out; each word cold (the block cache
    # cleared) and warm.  Above m = 6, where the entry-by-entry reference
    # takes seconds a word, the reference is the letter-by-letter product of
    # the local factors.
    rng = random.Random(89)
    for m in (1, 2, 3, 5, 6, 15, 16, 30):
        reference = _reference_word_product if m <= 6 else _letterwise_word_product
        for length in range(14):
            small = [(rng.choice(LETTERS), rng.choice((0, -2, -1, 1, 2, 3))) for _ in range(length)]
            word = GroupWord(tuple((name, p + rng.choice((0, 1, -1)) * 10 ** 6 * _letter_order(m, name))
                                   for name, p in small))
            want = _stored(reference(m, GroupWord(tuple(small))))[:4]
            _block.cache_clear()
            cold = word_product(m, word)
            warm = word_product(m, word)
            for W in (cold, warm):
                assert _stored(W)[:4] == want and W.resolved is (not word), (m, str(word))
                assert all(W is not factor for factor in _cached_blocks(m, word)), (m, str(word))
            assert cold is not warm


def test_letter_orders():
    for m in range(1, 8):
        for name in LETTERS:
            g = u_gen_general(m, name)
            assert g ** _letter_order(m, name) == UMatrix.identity(g.field, 2 * m), (m, name)


def test_word_product_reduces_letter_powers_by_their_orders():
    for m in (1, 2, 3, 5):
        for k in (-3, -1, 0, 1, 2, 5):
            for name, period in (("T", 4 * m), ("S", 8), ("-I", 4), ("ST2S", 8 * m)):
                base = word_product(m, GroupWord.of(("S", 1), (name, k), ("T", 1)))
                for shift in (period, -period, 10 ** 6 * period, -10 ** 6 * period):
                    shifted = word_product(m, GroupWord.of(("S", 1), (name, k + shift), ("T", 1)))
                    assert shifted.rows == base.rows and shifted.radicand == base.radicand, \
                        (m, name, k, shift)


def test_word_product_m7_matches_reference():
    # Q(zeta_168), degree 48, 14 x 14 matrices
    rng = random.Random(47)
    w = GroupWord.of(*((("S", "T")[i % 2], rng.choice((-3, -2, -1, 1, 2, 3))) for i in range(12)))
    start = time.perf_counter()
    W = word_product(7, w)
    assert time.perf_counter() - start < 2.0
    assert W.field.n == 168 and W.field.degree == 48 and W.size == 14
    ref = _reference_word_product(7, w)
    assert W.rows == ref.rows and W.radicand == ref.radicand


def test_resolve_m7_with_entries_near_a_million_is_unitary():
    c, d = 1000003, 314159
    a = pow(d, -1, c)
    gamma = SL2Mat(a, (a * d - 1) // c, c, d)
    start = time.perf_counter()
    U = resolve(7, sl2_word(gamma))
    assert time.perf_counter() - start < 2.0
    assert U @ U.conj_transpose() == UMatrix.identity(U.field, 14)


def test_umatrix_folds_square_part_of_radicand():
    f = CYC24
    rows = [[f.zeta(k), f.zeta(k + 5)] for k in (1, 7)]
    U = UMatrix(f, rows, 18)
    assert U.radicand == 2
    assert U.rows == tuple(tuple(c / 3 for c in row) for row in rows)


@pytest.mark.parametrize("ra, rb, radicand", [(6, 10, 15), (3, 5, 15), (2, 2, 1), (3, 3, 1)])
def test_a_product_folds_the_square_of_its_radicands_into_its_denominator(ra, rb, radicand,
                                                                          monkeypatch):
    m = 6
    s, t = u_gen_general(m, "S"), u_gen_general(m, "T")
    a = UMatrix(s.field, (s @ t).rows, ra)
    b = UMatrix(s.field, s.rows, rb)
    want = _matmul_reference(a, b)
    # the product runs no square-part search: it has no square to fold
    squares = []

    def spy(n):
        out = _square_part(n)
        squares.append(out[0])
        return out

    monkeypatch.setattr(weil, "_square_part", spy)
    got = a @ b
    assert squares == []
    assert got.field is want.field and got.rows == want.rows
    assert got.radicand == want.radicand == radicand


@pytest.mark.parametrize("m, gamma", [
    (2, SL2Mat(200001, -1, 200002, -1)),
    (1, SL2Mat(-114287, -4, -200002, -7)),
    (2, SL2Mat(1, 0, 2 * 10 ** 6, 1)),
])
def test_resolve_extreme_entries(m, gamma):
    start = time.perf_counter()
    U, sigma = resolve_scalar(m, sl2_word(gamma))
    assert time.perf_counter() - start < 1.0
    assert sigma == 1 or sigma == -1
    assert m != 2 or in_X(U)


def test_resolved_scalars_are_signs_for_true_generator_words():
    # products of true multiplier matrices differ from the true product
    # matrix by the square-root branch cocycle, a sign
    rng = random.Random(13)
    for _ in range(20):
        w = random_gamma0_2_word(rng, 10)
        _, sigma = resolve_scalar(2, w)
        assert sigma == 1 or sigma == -1


def test_in_X_examples():
    assert in_X(u_gen(2, "T"))
    assert in_X(u_gen(2, "ST2S"))
    assert in_X(u_gen(2, "-I"))
    f = CYC24
    bad = UMatrix(f, [[f.one] * 4 for _ in range(4)], 1)
    assert not in_X(bad)
    assert not in_X(u_gen(1, "T"))


def test_r_char_values():
    assert r_char(u_gen(2, "T")) == Z8
    assert r_char(u_gen(2, "ST2S")) == -I
    assert r_char(u_gen(2, "-I")) == -I
    assert r_char(UMatrix.identity(CYC24, 4)) == 1
    with pytest.raises(NotInX):
        r_char(u_gen(1, "T"))


def test_r_char_is_character_on_X():
    rng = random.Random(17)
    for _ in range(30):
        V = resolve(2, random_gamma0_2_word(rng, 8))
        W = resolve(2, random_gamma0_2_word(rng, 8))
        assert in_X(V) and in_X(W)
        assert r_char(V @ W) == r_char(V) * r_char(W)


def test_rho2_minus_identity():
    w = GroupWord.of(("-I", 1))
    R = rho2(w)
    assert R.size == 2
    assert R.entry(0, 0) == -1 and R.entry(1, 1) == -1 and R.entry(0, 1) == 0


def test_rho2_identity():
    R = rho2(GroupWord.of(("T", 1), ("T", -1)))
    assert R == UMatrix.identity(CYC24, 2)


def test_rho2_multiplicative():
    rng = random.Random(19)
    for _ in range(25):
        w1 = random_gamma0_2_word(rng, 6)
        w2 = random_gamma0_2_word(rng, 6)
        lhs = rho2(w1 + w2)
        rhs = rho2(w1) @ rho2(w2)
        assert lhs == UMatrix(rhs.field, rhs.rows, rhs.radicand, True)


def test_omega_values():
    assert omega_m(T, 1) == I
    assert omega_m(S, 1) == I
    # omega_2(T) = det U_1(T^2) = det diag(1, -1) = -1
    assert omega_m(T, 2) == -1


def test_omega_multiplicative():
    rng = random.Random(23)
    for m in (1, 2):
        for _ in range(25):
            if m == 1:
                g1 = sl2_word(random_gamma0_2_word(rng, 6).to_matrix()).to_matrix()
                g2 = random_gamma0_2_word(rng, 6).to_matrix()
            else:
                g1 = random_gamma0_2_word(rng, 6).to_matrix()
                g2 = random_gamma0_2_word(rng, 6).to_matrix()
            assert omega_m(g1 @ g2, m) == omega_m(g1, m) * omega_m(g2, m)


def test_cusp_entries_proportional_to_closed_form():
    # entries proportional to 1 + (-1)^c +- 2 i^{-c/2}, with i^{-c/2} read as
    # e^{-pi i c/4}
    for c in range(1, 13):
        e00, e20 = cusp_entry_values(c)
        sign = from_rational((-1) ** c)
        base = CYC24.zeta((-3 * c) % 24)
        f0 = 1 + sign + 2 * base
        f2 = 1 + sign - 2 * base
        assert e00 * f2 == e20 * f0, c


def test_cusp_entries_nonvanishing():
    for c in range(1, 21):
        e00, e20 = cusp_entry_values(c)
        if c % 2 == 1 or c % 4 == 2:
            assert not e00.is_zero() and not e20.is_zero(), c


def test_cusp_entry_c4_vanishes():
    e00, _ = cusp_entry_values(4)
    assert e00.is_zero()


def test_block_structure_exact():
    rng = random.Random(29)
    for m in (2, 3, 5, 6):
        for _ in range(6):
            w, wm = random_gamma0_m_word(rng, m)
            W = word_product(m, w)
            assert block_rows_vanish(m, W), (m, str(w))
            W1 = word_product(1, wm)
            assert submatrix_proportional(m, W, W1), (m, str(w))


def test_field_orders():
    assert field_order(1) == 24
    assert field_order(2) == 24
    assert field_order(3) == 24
    assert field_order(5) == 120
    assert field_order(6) == 24
    # each local factor in the least field holding its letters: the 2-part
    # in Q(zeta_lcm(8, 2q)), an odd q in Q(zeta_2q); the matrices of index m
    # that the module returns still in Q(zeta_lcm(24, 4m))
    for m, q, n in ((1, 2, 8), (2, 4, 8), (3, 2, 8), (3, 3, 6), (5, 2, 8), (5, 5, 10),
                    (6, 4, 8), (12, 8, 16), (16, 32, 64), (29, 29, 58), (30, 4, 8)):
        for g in LETTERS:
            assert _local_letter(m, q, g).field.n == n, (m, q, g)
    for m in range(1, 31):
        for q in _prime_powers(m):
            want = 2 * q if q % 2 else math.lcm(8, 2 * q)
            assert all(_local_letter(m, q, g).field.n == want for g in ("S", "T")), (m, q)
    word = GroupWord.of(("T", 1), ("S", -1))
    for m in (1, 2, 3, 4, 5, 6, 12, 16):
        for U in [u_gen_general(m, g) for g in LETTERS] + [word_product(m, word),
                                                          word_product(m, GroupWord.of())]:
            assert U.field.n == U.to_json()["order"] == field_order(m), m
    with pytest.raises(ValueError, match="index must be a positive integer"):
        u_gen_general(0, "S")


def test_umatrix_json():
    U = u_gen(2, "S")
    obj = U.to_json()
    assert obj["size"] == 4 and obj["order"] == 24
    s1 = u_gen(1, "S")
    assert s1.to_json()["sqrt_radicand"] == 2


# -- the word sign in O(letters) ---------------------------------------------


def _step_walk_scalar(word):
    """The sign one step per unit of power: sigma(P, h) for each step
    P <- P h, and sigma(g, g^-1) more per step of a negative power."""
    sign = 1
    P = I2
    for name, power in word:
        g = GENERATOR_MATRICES[name]
        h = g if power > 0 else g.inv()
        inverse_sign = sqrt_cocycle(g, h) if power < 0 else 1
        for _ in range(abs(power)):
            sign *= inverse_sign * sqrt_cocycle(P, h)
            P = P @ h
    return sign


def test_step_signs_have_period_four_for_every_letter():
    for name, g in GENERATOR_MATRICES.items():
        for h in (g, g.inv()):
            signs = [sqrt_cocycle(h ** k, h) for k in range(1, 41)]
            assert signs[4:] == signs[:-4], name


def test_word_scalar_matches_the_step_walk():
    rng = random.Random(53)
    prefixes = [GroupWord.of()] + [random_sl2_word(rng, 6) for _ in range(6)] \
        + [random_gamma0_2_word(rng, 6) for _ in range(6)]
    for prefix in prefixes:
        for name in GENERATOR_MATRICES:
            for p in range(-13, 14):
                w = prefix + GroupWord(((name, p),)) + random_sl2_word(rng, 3)
                assert word_scalar(w) == _step_walk_scalar(w), str(w)


@pytest.mark.parametrize("word", ["S^10000000000000000000001", "S^-10000000000000000000002 T",
                                  "ST2S^1000000000000", "ST2S^-1000000000003 -I^999999999"])
def test_huge_letter_powers_resolve_within_a_second(word):
    # the true multiplier depends on the group element alone, so the
    # continued-fraction word of the same matrix resolves to it too
    w = GroupWord.parse(word)
    start = time.perf_counter()
    U = resolve(2, w)
    assert time.perf_counter() - start < 1.0
    assert U == resolve(2, sl2_word(w.to_matrix()))


def test_fit_refuses_above_its_cap_and_admits_below():
    from jfkernel.numeric import FIT_MAX_J, ORACLE_TAU

    huge = GroupWord.parse("ST2S^-1000000000003")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="numeric fit refused"):
        fit_scalar(2, huge, word_product(2, huge))
    assert time.perf_counter() - start < 1.0
    # c = 8000 at the oracle point: |c tau + d| just under the cap
    w = GroupWord.of(("S", 1), ("T", -8000), ("S", 1))
    gamma = w.to_matrix()
    assert 0.9 * FIT_MAX_J < abs(gamma.c * ORACLE_TAU + gamma.d) < FIT_MAX_J
    U = word_product(2, w)
    assert fit_scalar(2, w, U) == resolve_scalar(2, w, U)[1]


def test_powers_start_from_the_first_factor(monkeypatch):
    counted = []
    matmul = UMatrix.__matmul__

    def counting(a, b):
        counted.append(1)
        return matmul(a, b)

    monkeypatch.setattr(UMatrix, "__matmul__", counting)
    for m in (1, 2, 3):
        u = word_product(m, GroupWord.of(("S", 1), ("T", 1)))
        resolved = resolve(m, GroupWord.of(("S", 1), ("T", 1)))
        want = u
        for e in range(1, 12):
            counted.clear()
            got = u ** e
            # square and multiply: one product per bit after the first, and
            # one per set bit after the first
            assert len(counted) == e.bit_length() - 1 + bin(e).count("1") - 1, e
            assert got == want and got.resolved is False, (m, e)
            counted.clear()
            want = matmul(want, u)
        # U^1 is U itself, or an unresolved copy of a resolved U
        assert u ** 1 is u
        one = resolved ** 1
        assert one == resolved and one.resolved is False and resolved.resolved is True
        zero = u ** 0
        assert zero.resolved is True and zero == UMatrix.identity(u.field, 2 * m)
        assert u ** -3 == (u ** 3).conj_transpose()


# ---------------------------------------------------------------------------
# Word products through the local factors of 2m


def _full_word_product(m, word):
    """The 2m x 2m product left to right through the matrix kernel, which
    the tests above pin to :func:`_matmul_reference`: each letter's power of
    the whole-index letter by square and multiply, never reduced by its
    period."""
    out = UMatrix.identity(cyclotomic_field(field_order(m)), 2 * m)
    for name, power in word:
        out = out @ u_gen_general(m, name) ** power
    return out


def _stored(U):
    return U.field, U.den, U.radicand, U._entries, U.resolved


def _seeded_words(rng, count):
    """Words of one to three letters over S, T, -I and ST2S, with powers
    from -7 to 11: negative ones, and ones past the periods of S and -I (and
    of T and ST2S at m = 1, 2)."""
    powers = [p for p in range(-7, 12) if p]
    return [GroupWord(tuple((rng.choice(LETTERS), rng.choice(powers))
                            for _ in range(rng.randint(1, 3)))) for _ in range(count)]


# split indices, each word with an S
SPLIT_CASES = [(m, GroupWord.parse(text)) for m in (3, 5, 6, 15)
               for text in ("S T^2 S T^-1 S", "-I T^3", "ST2S^2 S")]


def _mismatches(cases, wants):
    return [(m, str(w)) for (m, w), want in zip(cases, wants)
            if _stored(word_product(m, w)) != _stored(want)]


def test_factored_word_product_is_the_full_product_at_every_index():
    # every stored part agrees: field, den, radicand, entries and flag;
    # the entry-by-entry reference where it is cheap, the kernel above it
    rng = random.Random(61)
    for m in range(1, 31):
        for w in _seeded_words(rng, 6 if m <= 4 else 3 if m <= 12 else 1):
            want = _reference_word_product(m, w) if m <= 4 else _full_word_product(m, w)
            assert _stored(word_product(m, w)) == _stored(want), (m, str(w))
    wants = [_full_word_product(m, w) for m, w in SPLIT_CASES]
    assert _mismatches(SPLIT_CASES, wants) == []


def test_label_map_is_a_bijection_of_z_mod_2m():
    for m in range(1, 61):
        qs = weil._prime_powers(m)
        assert math.prod(qs) == 2 * m and qs[0] % 2 == 0
        for q in qs:
            p = next(d for d in range(2, q + 1) if q % d == 0)
            assert q == p ** round(math.log(q, p)) and math.gcd(q, 2 * m // q) == 1
        labels = weil._labels(m)
        assert len(labels) == 2 * m and len(set(labels)) == 2 * m
        for r, x in enumerate(labels):
            assert all(0 <= xq < q for xq, q in zip(x, qs))
            assert sum(2 * m // q * xq for xq, q in zip(x, qs)) % (2 * m) == r


def test_prime_powers_of_2m_are_coprime_and_ascending_in_their_primes():
    for m in range(1, 1001):
        qs = weil._prime_powers(m)
        primes = [next(p for p in range(2, q + 1) if q % p == 0) for q in qs]
        assert math.prod(qs) == 2 * m and qs[0] == 2 * m & -(2 * m)
        assert primes == sorted(set(primes))
        assert all(q == p ** round(math.log(q, p)) for p, q in zip(primes, qs))


@pytest.mark.parametrize("m", [15, 30])
def test_split_word_products_multiply_no_full_size_matrices(monkeypatch, m):
    # counted like test_powers_start_from_the_first_factor: every product of
    # two matrices, with the letter caches cold, is of local factors
    sizes = []
    matmul = UMatrix.__matmul__

    def counting(a, b):
        sizes.append((a.size, b.size))
        return matmul(a, b)

    monkeypatch.setattr(UMatrix, "__matmul__", counting)
    monkeypatch.setattr(weil, "_block", weil._block.__wrapped__)
    monkeypatch.setattr(weil, "_local_letter", weil._local_letter.__wrapped__)
    for text in ("S T S T^-1 S", "ST2S^3 -I S T^5", "S^9 T^-7 S"):
        word_product(m, GroupWord.parse(text))
    assert sizes and max(max(pair) for pair in sizes) <= max(weil._prime_powers(m)) < 2 * m


def _local_s_without_e8(exact):
    def letter(m, q, name):
        U = exact(m, q, name)
        if name == "S" and q % 2 == 0:
            U = U.scale(U.field.zeta(U.field.n // 8))
        return U
    return letter


@pytest.mark.parametrize("mutant", ["local S without e(-1/8)", "label map shifted by one"])
def test_factored_word_product_differs_from_the_full_product_when_broken(monkeypatch, mutant):
    wants = [_full_word_product(m, w) for m, w in SPLIT_CASES]
    if mutant == "local S without e(-1/8)":
        monkeypatch.setattr(weil, "_block", weil._block.__wrapped__)
        monkeypatch.setattr(weil, "_local_letter", _local_s_without_e8(weil._local_letter.__wrapped__))
    else:
        exact = weil._labels
        monkeypatch.setattr(weil, "_labels", lambda m: exact(m)[1:] + exact(m)[:1])
    assert _mismatches(SPLIT_CASES, wants) == [(m, str(w)) for m, w in SPLIT_CASES]


# ---------------------------------------------------------------------------
# Scalars applied entry by entry


def _root_product(U):
    """canonical() by the product route: U, lifted into the least field
    holding sqrt(d) (its conductor is d for d = 1 mod 4, else 4d), times
    sqrt(d) I / sqrt(d), the identity matrix with radicand d, through the
    matrix kernel."""
    d = U.radicand
    f = cyclotomic_field(math.lcm(U.field.n, d if d % 4 == 1 else 4 * d))
    U, r = U.embed(f), f.sqrt_int(d)
    D = UMatrix(f, [[r if i == j else f.zero for j in range(U.size)] for i in range(U.size)], d)
    return (U @ D)._with(resolved=U.resolved)


def test_canonical_is_the_product_with_the_root_identity():
    rng = random.Random(83)
    # each local letter in its own field: an odd one lies in Q(zeta_2q),
    # which lacks sqrt(q) for q = 3 mod 4, so canonical() lifts it
    cases = [weil._local_letter(m, q, name)
             for m in range(1, 31) for q in weil._prime_powers(m) for name in LETTERS]
    cases += [word_product(m, GroupWord.parse("S") + w) for m in range(1, 31)
              for w in _seeded_words(rng, 1)]
    assert {U.radicand for U in cases} >= {1, 2, 3, 5, 6, 10, 15, 30}
    for U in cases:
        got, want = U.canonical(), _root_product(U)
        assert got.radicand == want.radicand == 1
        assert got == want and got.to_json() == want.to_json(), (U.size, U.radicand)


def test_canonical_of_a_public_matrix_lifts_into_the_field_of_its_root():
    f6 = cyclotomic_field(6)
    U = UMatrix(f6, [[f6.one]], 3)
    e = U.entry(0, 0)
    assert e.field is cyclotomic_field(12)
    assert e * e == Fraction(1, 3) and abs(e.to_complex() - 3 ** -0.5) < 1e-12
    assert U == U.canonical() and U.canonical() == U


def test_canonical_refuses_a_lift_above_the_json_bound_before_building_a_field():
    # 997 is prime and 1 mod 4: sqrt of it is in Q(zeta_997), so the lift needs
    # Q(zeta_lcm(24, 997))
    fields = cyclotomic_field.cache_info().currsize
    start = time.perf_counter()
    U = UMatrix(CYC24, [[CYC24.one]], 997)
    with pytest.raises(ValueError, match=r"^sqrt\(997\) needs Q\(zeta_23928\), above 1000$"):
        U.canonical()
    assert time.perf_counter() - start < 1.0
    assert cyclotomic_field.cache_info().currsize == fields


def test_a_radicand_is_factored_by_the_primes_up_to_the_json_bound():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^1000000000100000000002379 leaves 1000000000100000000002379 "
                                         r"after the primes up to 1000, not a square$"):
        UMatrix(CYC24, [[CYC24.one]], (10 ** 12 + 39) * (10 ** 12 + 61))
    assert time.perf_counter() - start < 1.0
    # refused at construction now, where canonical() refused them before
    for radicand in (10 ** 8 + 7, 10 ** 12 + 39, 2 * 1009 * 1013):
        with pytest.raises(ValueError, match=r"after the primes up to 1000, not a square$"):
            UMatrix(CYC24, [[CYC24.one]], radicand)
    # a square left past the bound folds into the denominator
    p = 10 ** 12 + 39
    U = UMatrix(CYC24, [[CYC24.one, CYC24.zeta(1)]] * 2, 6 * p * p)
    assert U.radicand == 6 and U.den == p
    assert U == UMatrix(CYC24, [[CYC24.one / p, CYC24.zeta(1) / p]] * 2, 6)
    # a prime above the bound that the square-root stop leaves is kept
    assert UMatrix(CYC24, [[CYC24.one]], 2 * 1009).radicand == 2018


def test_refusals_of_the_weil_module():
    U = word_product(3, GroupWord.of(("S", 1), ("T", 2)))
    refusals = [
        (lambda: UMatrix(CYC24, [[CYC24.one]], 0), r"radicand must be positive"),
        (lambda: u_gen(1, "S").embed(cyclotomic_field(40)),
         r"no embedding Q\(zeta_24\) -> Q\(zeta_40\)"),
        (U.det2, r"det2 needs a 2x2 matrix"),
        (lambda: u_gen(3, "S"), r"no displayed generator for index 3, letter 'S'"),
        (lambda: u_gen_general(2, "X"), r"unsupported generator letter 'X'"),
        (lambda: word_product(2, GroupWord.of(("X", 1))), r"unsupported generator letter 'X'"),
        (lambda: rho2(GroupWord.of(("S", 1))), r"word does not evaluate into the level-2 subgroup"),
        (lambda: cusp_entry_values(0), r"c must be a positive integer"),
        (lambda: fit_scalar(1, GroupWord.of(("T", 1)), u_gen(1, "T"), 0.2 + 0.49j),
         r"resolution point needs Im tau >= 0.5"),
    ]
    for call, message in refusals:
        with pytest.raises(ValueError, match=rf"^{message}$"):
            call()
    assert (U == "a") is False and (U != "a") is True


def test_scalars_apply_entry_by_entry_without_matrix_products(monkeypatch):
    """canonical(), scale() and identity() write their entries from the
    coordinate tuples: no matrix product and no constructor call."""
    rng = random.Random(89)
    cases = [word_product(m, w) for m in (1, 2, 3, 5) for w in _seeded_words(rng, 3)]
    assert any(U.radicand > 1 for U in cases)
    scalars = [CYC24.zeta(5), from_rational(Fraction(-3, 7)) + I, cyclotomic_field(40).zeta(3),
               CYC24.zero]
    calls = []
    product, new = weil._product, UMatrix.__new__

    def counting_product(*args):
        calls.append("_product")
        return product(*args)

    def counting_new(*args):
        calls.append("__new__")
        return new(*args)

    monkeypatch.setattr(weil, "_product", counting_product)
    monkeypatch.setattr(UMatrix, "__new__", staticmethod(counting_new))
    for U in cases:
        assert U.canonical().radicand == 1
        for c in scalars:
            assert U.scale(c).resolved is U.resolved
        assert UMatrix.identity(U.field, U.size).resolved is True
    assert calls == []
    # the counters see a constructor call and a product
    one = UMatrix(CYC24, [[CYC24.one]])
    one @ one
    assert calls == ["__new__", "_product"]


@pytest.mark.parametrize("m", [2, 3, 5, 6, 10, 15, 30])
def test_submatrix_proportional_fails_on_wrong_or_zero_corners(m):
    rng = random.Random(97 + m)
    w, wm = random_gamma0_m_word(rng, m)
    W, W1 = word_product(m, w), word_product(1, wm)
    assert submatrix_proportional(m, W, W1)
    assert submatrix_proportional(m, W, W1.scale(CYC24.zeta(5)))
    assert not submatrix_proportional(m, W, word_product(1, wm + GroupWord.parse("T")))
    corners = {(0, 0), (0, m), (m, 0), (m, m)}
    zeroed = W._with(tuple(tuple([() if (i, j) in corners else xs for j, xs in enumerate(row)])
                           for i, row in enumerate(W._entries)))
    assert not submatrix_proportional(m, zeroed, W1)


def test_canonical_builds_each_root_once(monkeypatch):
    """sqrt(radicand) is built from Gauss sums once per (field order, d),
    however often canonical() folds it in."""
    built = []
    sqrt_int = CyclotomicField.sqrt_int

    def counting(field, d):
        built.append((field.n, d))
        return sqrt_int(field, d)

    weil._root.cache_clear()
    monkeypatch.setattr(CyclotomicField, "sqrt_int", counting)
    f120 = cyclotomic_field(120)
    cases = [UMatrix(CYC24, [[CYC24.one, I], [I, CYC24.one]], 2),
             UMatrix(f120, [[f120.zeta(7)]], 10), UMatrix(CYC24, [[I]], 5)]
    first = [U.canonical() for U in cases]
    for _ in range(3):
        assert [U.canonical() for U in cases] == first
    # sqrt 5 needs Q(zeta_120): the lift of the Q(zeta_24) matrix shares it
    assert built == [(24, 2), (120, 10), (120, 5)]
