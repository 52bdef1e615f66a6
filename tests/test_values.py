"""The small value classes are slotted and keep the ==, hash and repr of
the frozen dataclasses they replace; a dataclass twin with the same fields
gives the expected behaviour."""

from dataclasses import make_dataclass
from fractions import Fraction as F

import pytest

from jfkernel._value import power
from jfkernel.construct import VVPair
from jfkernel.cyclotomic import CYC24
from jfkernel.series import FormMeta, PuiseuxSeries
from jfkernel.sl2 import I2, GroupWord, SL2Mat
from jfkernel.verify import CheckReport


def _twins(*xs, frozen=True):
    """Values of one class as instances of one dataclass of the same name and
    fields."""
    cls = type(xs[0])
    twin = make_dataclass(cls.__name__, cls.__slots__, frozen=frozen)
    return [twin(*x._fields()) for x in xs]


# pairs of values of one class: equal, unequal, and equal but not identical
PAIRS = {
    "SL2Mat equal": (SL2Mat(1, 2, 3, 7), SL2Mat(1, 2, 3, 7)),
    "SL2Mat unequal": (SL2Mat(1, 2, 3, 7), SL2Mat(1, 2, -3, -5)),
    "SL2Mat big entries": (SL2Mat(10 ** 30 + 1, 1, 10 ** 30, 1), SL2Mat(1, 0, 0, 1)),
    "GroupWord equal": (GroupWord.parse("S T^2 -I"), GroupWord.of(("S", 1), ("T", 2), ("-I", 1))),
    "GroupWord unequal": (GroupWord.parse("S T^2"), GroupWord.parse("T^2 S")),
    "GroupWord empty": (GroupWord(()), GroupWord.parse("")),
    "FormMeta equal": (FormMeta(weight=F(1, 2), level=1, kind="cuspidal", source="eta"),
                       FormMeta(F(1, 2), None, 1, None, "cuspidal", "eta")),
    "FormMeta unequal": (FormMeta(weight=F(3), index=2), FormMeta(weight=F(3), level=2)),
    "FormMeta empty": (FormMeta(), FormMeta()),
}


@pytest.mark.parametrize("case", sorted(PAIRS))
def test_eq_hash_and_repr_are_the_frozen_dataclass_ones(case):
    x, y = PAIRS[case]
    tx, ty = _twins(x, y)
    assert repr(x) == repr(tx) and repr(y) == repr(ty)
    assert hash(x) == hash(tx) and hash(y) == hash(ty)
    assert (x == y) == (tx == ty) and (x != y) == (tx != ty)
    assert x == x and not x != x
    # another class, even with the same fields, is never equal
    assert x != tx and x.__eq__(tx) is NotImplemented
    assert x != x._fields()


def test_reprs_are_pinned():
    assert repr(SL2Mat(1, 2, 3, 7)) == "SL2Mat(a=1, b=2, c=3, d=7)"
    assert repr(GroupWord.parse("S T^-2")) == "GroupWord(letters=(('S', 1), ('T', -2)))"
    assert repr(FormMeta(weight=F(1, 2), kind="cuspidal")) == (
        "FormMeta(weight=Fraction(1, 2), index=None, level=None, character=None, "
        "kind='cuspidal', source=None)")
    assert str(SL2Mat(1, 2, 3, 7)) == "[[1,2],[3,7]]"


def test_value_classes_are_slotted():
    for x in (I2, GroupWord(()), FormMeta(), CheckReport("c", "pass")):
        assert not hasattr(x, "__dict__")
        with pytest.raises(AttributeError):
            x.extra = 1


def test_sl2mat_refuses_a_determinant_other_than_one():
    for entries in ((1, 0, 0, 2), (1, 1, 1, 1), (0, 0, 0, 0), (2, 3, 1, 1)):
        with pytest.raises(ValueError) as info:
            SL2Mat(*entries)
        a, b, c, d = entries
        assert str(info.value) == f"determinant is not 1: [[{a},{b}],[{c},{d}]]"


def test_group_word_is_a_dict_key():
    table = {GroupWord.parse("S T^2"): "st2", GroupWord.parse("T"): "t"}
    assert table[GroupWord.of(("S", 1), ("T", 2))] == "st2"
    assert table[GroupWord.parse("S") + GroupWord.parse("T^2")] == "st2"
    assert GroupWord.parse("T^2 S") not in table
    assert len({GroupWord.parse("S S"), GroupWord.of(("S", 1), ("S", 1))}) == 1
    assert len({SL2Mat(1, 1, 0, 1), GroupWord.parse("T").to_matrix()}) == 1


def test_vvpair_equality_is_componentwise():
    a = PuiseuxSeries({F(1, 2): 1, F(2): -3}, 4)
    b = PuiseuxSeries.one(3)
    meta = FormMeta(weight=F(5, 2), index=2)
    pair = VVPair(a, b, meta)
    assert pair == VVPair(a + a - a, b, FormMeta(weight=F(5, 2), index=2))
    assert pair != VVPair(a, b)
    assert pair != VVPair(b, a, meta)
    assert pair != VVPair(a, b.truncate(2), meta)
    assert VVPair(a, b) == VVPair(a, b, None)
    assert repr(pair) == repr(*_twins(pair))
    # a series has no hash, so neither has a pair of them
    with pytest.raises(TypeError):
        hash(pair)


def test_check_report_is_an_unhashable_record():
    r = CheckReport("eta3", "pass", 30, None, 1.25)
    twin, = _twins(r, frozen=False)
    assert repr(r) == repr(twin)
    assert r == CheckReport("eta3", "pass", 30, None, 1.25)
    assert r != CheckReport("eta3", "pass", 30, None, 1.5)
    assert CheckReport("x", "fail") == CheckReport("x", "fail", None, None, None)
    assert CheckReport.__hash__ is None and type(twin).__hash__ is None
    assert r.passed and CheckReport("x", "fail", witness="w").failure == "w"


def test_power_squares_and_multiplies_from_the_first_factor():
    """One product per bit after the first and one per set bit after the
    first; x^1 is x itself, for every class whose ``**`` goes through it."""
    products = []

    def mul(a, b):
        products.append((a, b))
        return a * b

    for e in range(1, 70):
        products.clear()
        assert power(3, e, mul) == 3 ** e
        assert len(products) == e.bit_length() - 1 + bin(e).count("1") - 1, e
    g, x = SL2Mat(2, 1, 1, 1), CYC24.zeta(5) + 1
    assert power(g, 1, None) is g and g ** 1 is g and x ** 1 is x
