"""Predicate evaluation, vectorized (LBP) and scalar (Volcano).

Operators: ``=``, ``<>``, ``<``, ``<=``, ``>``, ``>=``, ``contains``,
``startswith``, ``in``. NULL operands make a predicate false (SQL
semantics, matching the DuckDB oracle).

On dictionary-encoded blocks, value-level predicates against a literal
are evaluated **on the dictionary** (z values) and broadcast through the
codes with one gather — the paper's operate-on-compressed-data path
(§5.1). The dictionary-side mask is computed once per predicate per
query: every operator that evaluates a literal predicate owns one
:class:`DictMask` per predicate site, a single-entry memo keyed by the
identity of the dictionary and of the literal plus the op, so each later
block over the same dictionary costs only the gather.

Raw values are evaluated with NULLs masked out first: comparisons and a
numeric ``in`` in numpy, ``contains``/``startswith`` and an object
``in`` in one Python pass over the non-NULL values (a non-``str`` value
never contains or starts with anything).
"""
from __future__ import annotations

import numpy as np

from repro.proc.chunk import Block

OPS = ("=", "<>", "<", "<=", ">", ">=", "contains", "startswith", "in")

_CMP = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def scalar_op(op: str, left, right) -> bool:
    """Tuple-at-a-time evaluation (the Volcano path)."""
    if left is None or right is None:
        return False
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "contains":
        return str(right) in str(left)
    if op == "startswith":
        return str(left).startswith(str(right))
    if op == "in":
        return left in right
    raise ValueError(f"unknown op {op!r}")


def _eval_values(op: str, v: np.ndarray, lit) -> np.ndarray:
    """Vectorized op of non-NULL values against a literal."""
    if op in _CMP:
        return _CMP[op](v, lit)
    n = len(v)
    if op == "contains":
        s = str(lit)
        return np.fromiter(
            (isinstance(x, str) and s in x for x in v), dtype=bool, count=n
        )
    if op == "startswith":
        s = str(lit)
        return np.fromiter(
            (isinstance(x, str) and x.startswith(s) for x in v),
            dtype=bool, count=n,
        )
    if op == "in":
        if v.dtype != object:
            return np.isin(v, list(lit))
        vals = frozenset(lit)
        return np.fromiter((x in vals for x in v), dtype=bool, count=n)
    raise ValueError(f"unknown op {op!r}")


def _apply_masked(op: str, vals: np.ndarray, nulls: np.ndarray | None, lit):
    """Vectorized op against a literal; NULL rows are False."""
    if nulls is None:
        return _eval_values(op, vals, lit)
    out = np.zeros(len(vals), dtype=bool)
    nn = ~nulls
    if nn.any():
        out[nn] = _eval_values(op, vals[nn], lit)
    return out


def _dictionary_mask(op: str, dictionary: np.ndarray, lit) -> np.ndarray:
    """The op over the z dictionary values, plus a False NULL slot (z)."""
    return np.append(_eval_values(op, dictionary, lit), False)


class DictMask:
    """Single-entry memo of one predicate site's dictionary-side mask.

    The entry is keyed by the identity of the dictionary and of the
    literal, plus the op: a new dictionary object or a new literal
    recomputes and replaces it. The memo holds references to both, so
    their identities stay valid while the entry lives.
    """

    __slots__ = ("op", "dictionary", "lit", "mask")

    def __init__(self) -> None:
        self.op = self.dictionary = self.lit = self.mask = None

    def get(self, op: str, dictionary: np.ndarray, lit) -> np.ndarray:
        if (
            dictionary is not self.dictionary
            or lit is not self.lit
            or op != self.op
        ):
            self.mask = _dictionary_mask(op, dictionary, lit)
            self.op, self.dictionary, self.lit = op, dictionary, lit
        return self.mask


def eval_block_vs_literal(
    op: str, block: Block, lit, memo: DictMask | None = None
) -> np.ndarray:
    """Boolean mask over a block. Dictionary-coded blocks evaluate the
    predicate once per distinct value (once per ``memo`` entry when one
    is given) and gather through the codes."""
    if block.dictionary is None:
        return _apply_masked(op, block.data, block.nulls, lit)
    table = (memo or DictMask()).get(op, block.dictionary, lit)
    codes = block.data
    if block.nulls is not None:
        # An intp NULL code widens narrow codes instead of overflowing.
        codes = np.where(block.nulls, np.intp(len(block.dictionary)), codes)
    return table[codes]


def eval_block_vs_block(op: str, left: Block, right: Block) -> np.ndarray:
    """Both operands unflat in the same group (list/list case, §6.2)."""
    lv, rv = left.decoded(), right.decoded()
    n = len(lv)
    nn = np.ones(n, dtype=bool)
    if left.nulls is not None:
        nn &= ~left.nulls
    if right.nulls is not None:
        nn &= ~right.nulls
    out = np.zeros(n, dtype=bool)
    if nn.any():
        if lv.dtype != object and rv.dtype != object and op in _CMP:
            out[nn] = _CMP[op](lv[nn], rv[nn])
        else:
            out[nn] = np.array(
                [scalar_op(op, a, b) for a, b in zip(lv[nn], rv[nn])],
                dtype=bool,
            )
    return out

