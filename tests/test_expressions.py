"""Predicate evaluation — scalar and vectorized, NULL semantics."""
import numpy as np
import pytest

from repro.proc.chunk import Block
from repro.proc.expressions import (
    OPS,
    eval_block_vs_block,
    eval_block_vs_literal,
    scalar_op,
)

OPS_TRUE = [
    ("=", 3, 3), ("<>", 3, 4), ("<", 1, 2), ("<=", 2, 2), (">", 5, 4),
    (">=", 4, 4), ("contains", "abcd", "bc"), ("startswith", "abcd", "ab"),
    ("in", "x", ["x", "y"]),
]
OPS_FALSE = [
    ("=", 3, 4), ("<>", 3, 3), ("<", 2, 1), ("<=", 3, 2), (">", 4, 5),
    (">=", 3, 4), ("contains", "abcd", "xz"), ("startswith", "abcd", "cd"),
    ("in", "z", ["x", "y"]),
]


@pytest.mark.parametrize("op,l,r", OPS_TRUE)
def test_scalar_true(op, l, r):
    assert scalar_op(op, l, r) is True


@pytest.mark.parametrize("op,l,r", OPS_FALSE)
def test_scalar_false(op, l, r):
    assert scalar_op(op, l, r) is False


@pytest.mark.parametrize("op", ["=", "<", "contains", "in"])
def test_scalar_null_is_false(op):
    assert scalar_op(op, None, "x") is False
    assert scalar_op(op, "x", None) is False


def test_scalar_unknown_op():
    with pytest.raises(ValueError):
        scalar_op("like", 1, 2)


class TestBlockVsLiteral:
    def test_numeric_comparison(self):
        b = Block(np.array([1, 5, 10]))
        assert list(eval_block_vs_literal(">", b, 4)) == [False, True, True]

    def test_null_rows_false(self):
        b = Block(np.array([5, 5]), np.array([False, True]))
        assert list(eval_block_vs_literal("=", b, 5)) == [True, False]

    def test_contains_on_strings(self):
        b = Block(np.array(["alpha", "beta", None], dtype=object),
                  np.array([False, False, True]))
        assert list(eval_block_vs_literal("contains", b, "a")) == [
            True, True, False,
        ]

    def test_startswith(self):
        b = Block(np.array(["abc", "xbc"], dtype=object))
        assert list(eval_block_vs_literal("startswith", b, "ab")) == [
            True, False,
        ]

    def test_in(self):
        b = Block(np.array(["a", "b", "c"], dtype=object))
        assert list(eval_block_vs_literal("in", b, ["a", "c"])) == [
            True, False, True,
        ]

    def test_dictionary_coded_evaluates_on_dictionary(self):
        # codes over dictionary ['ab', 'cd']; code 2 = NULL
        b = Block(
            np.array([0, 1, 0, 2]),
            np.array([False, False, False, True]),
            dictionary=np.array(["ab", "cd"], dtype=object),
        )
        assert list(eval_block_vs_literal("contains", b, "a")) == [
            True, False, True, False,
        ]
        assert list(eval_block_vs_literal("=", b, "cd")) == [
            False, True, False, False,
        ]


class TestBlockVsBlock:
    def test_numeric(self):
        l = Block(np.array([1, 5, 7]))
        r = Block(np.array([2, 5, 3]))
        assert list(eval_block_vs_block(">", l, r)) == [False, False, True]
        assert list(eval_block_vs_block("=", l, r)) == [False, True, False]

    def test_nulls_either_side_false(self):
        l = Block(np.array([1, 5]), np.array([True, False]))
        r = Block(np.array([0, 5]), np.array([False, True]))
        assert list(eval_block_vs_block("=", l, r)) == [False, False]

    def test_object_fallback(self):
        l = Block(np.array(["b", "a"], dtype=object))
        r = Block(np.array(["a", "b"], dtype=object))
        assert list(eval_block_vs_block(">", l, r)) == [True, False]


# -- parity with scalar_op ----------------------------------------------------

_STRS = np.array(
    ["alpha", "beta", None, "al", "", "gamma", None, "beta", "Alpha"],
    dtype=object,
)
_STR_LITS = {
    "=": "beta", "<>": "beta", "<": "b", "<=": "beta", ">": "al",
    ">=": "beta", "contains": "a", "startswith": "al",
    "in": ["al", "beta", "zz"],
}
_NUMS = np.array([3, -1, 0, 7, 3, 12, 5])
_NUM_NULLS = np.array([False, False, True, False, False, True, False])
_NUM_LITS = {
    "=": 3, "<>": 3, "<": 3, "<=": 3, ">": 3, ">=": 3, "in": [0, 3, 12, 99],
}


def _expected(op, values, nulls, lit):
    return [
        False if n else scalar_op(op, v, lit) for v, n in zip(values, nulls)
    ]


def _dict_block(values):
    """Dictionary-code ``values`` (None = NULL); NULL rows carry the
    reserved code z, except the last one, which carries code 0."""
    nulls = np.array([v is None for v in values])
    dictionary = np.array(sorted({v for v in values if v is not None}),
                          dtype=object)
    lut = {v: i for i, v in enumerate(dictionary)}
    codes = np.array(
        [len(dictionary) if v is None else lut[v] for v in values],
        dtype=np.uint8,
    )
    codes[np.flatnonzero(nulls)[-1]] = 0
    return Block(codes, nulls, dictionary)


@pytest.mark.parametrize("op", OPS)
def test_raw_strings_match_scalar(op):
    lit = _STR_LITS[op]
    nulls = np.array([v is None for v in _STRS])
    got = eval_block_vs_literal(op, Block(_STRS, nulls), lit)
    assert got.dtype == bool
    assert list(got) == _expected(op, _STRS, nulls, lit)
    vals = _STRS[~nulls]
    got = eval_block_vs_literal(op, Block(vals), lit)
    assert got.dtype == bool
    assert list(got) == [scalar_op(op, v, lit) for v in vals]


@pytest.mark.parametrize("op", OPS)
def test_dictionary_matches_scalar(op):
    b = _dict_block(list(_STRS))
    got = eval_block_vs_literal(op, b, _STR_LITS[op])
    assert got.dtype == bool
    assert list(got) == _expected(op, _STRS, b.nulls, _STR_LITS[op])


@pytest.mark.parametrize("op", sorted(_NUM_LITS))
@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.float64])
def test_numeric_matches_scalar(op, dtype):
    vals = np.abs(_NUMS).astype(dtype)
    lit = _NUM_LITS[op]
    got = eval_block_vs_literal(op, Block(vals, _NUM_NULLS), lit)
    assert list(got) == _expected(op, vals.tolist(), _NUM_NULLS, lit)
    got = eval_block_vs_literal(op, Block(vals), lit)
    assert list(got) == [scalar_op(op, v, lit) for v in vals.tolist()]


def test_non_str_values_never_contain():
    b = Block(np.array(["a1", 1, "b1", 2.5], dtype=object))
    assert list(eval_block_vs_literal("contains", b, "1")) == [
        True, False, True, False,
    ]
    assert list(eval_block_vs_literal("startswith", b, "b")) == [
        False, False, True, False,
    ]


@pytest.mark.parametrize("op", OPS)
def test_all_null_block_is_all_false(op):
    lit = _STR_LITS[op]
    nulls = np.ones(4, dtype=bool)
    raw = Block(np.array([None] * 4, dtype=object), nulls)
    assert not eval_block_vs_literal(op, raw, lit).any()
    coded = Block(
        np.array([2, 2, 0, 2], dtype=np.uint8), nulls,
        np.array(["al", "beta"], dtype=object),
    )
    got = eval_block_vs_literal(op, coded, lit)
    assert len(got) == 4 and not got.any()
    if op in _NUM_LITS:
        got = eval_block_vs_literal(op, Block(np.zeros(4), nulls),
                                    _NUM_LITS[op])
        assert len(got) == 4 and not got.any()


def test_dictionary_null_code_wider_than_codes():
    # z = 256 values: uint8 codes, but the NULL code 256 needs 9 bits.
    d = np.array([f"v{i:03d}" for i in range(256)], dtype=object)
    b = Block(np.array([0, 255, 7], dtype=np.uint8),
              np.array([False, False, True]), d)
    assert list(eval_block_vs_literal(">=", b, "v100")) == [
        False, True, False,
    ]
