"""Factorized intermediate tuples: list groups and chunks (paper §6.1).

An :class:`IntermediateChunk` is a list of :class:`ListGroup`\\ s; the
tuple set it represents is the Cartesian product of what each group
represents. A group is *flat* (``cur_idx >= 0`` — one tuple, the
``cur_idx``'th row of its blocks) or an *unflat list of tuples*
(``cur_idx == -1`` — as many tuples as the blocks are long). Blocks are
variable-length and are frequently **views** over CSR / property-page
arrays, which is how LBP avoids materializing adjacency lists.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class Block:
    """One column of a list group. ``data`` holds values — or dictionary
    codes when ``dictionary`` is set; ``nulls`` marks NULL positions."""

    data: np.ndarray
    nulls: np.ndarray | None = None
    dictionary: np.ndarray | None = None

    @classmethod
    def of_column(cls, data: np.ndarray, nulls: np.ndarray, col) -> "Block":
        """A block of values (or codes) read from a vertex column ``col``."""
        return cls(
            data,
            nulls if nulls.any() else None,
            col.dictionary if col.kind == "dict" else None,
        )

    def __len__(self) -> int:
        return len(self.data)

    def take(self, sel: np.ndarray) -> "Block":
        return Block(
            self.data[sel],
            None if self.nulls is None else self.nulls[sel],
            self.dictionary,
        )

    def decoded(self) -> np.ndarray:
        """Values as an object/native array with None at NULLs."""
        if self.dictionary is not None:
            table = np.append(self.dictionary, None)
            idx = self.data.astype(np.int64)
            if self.nulls is not None:
                idx = np.where(self.nulls, len(self.dictionary), idx)
            return table[idx]
        if self.nulls is not None and self.nulls.any():
            out = self.data.astype(object)
            out[self.nulls] = None
            return out
        return self.data

    def scalar(self, i: int):
        """Decoded scalar at position i (None when NULL)."""
        if self.nulls is not None and bool(self.nulls[i]):
            return None
        v = self.data[i]
        if self.dictionary is not None:
            return self.dictionary[int(v)]
        return v.item() if hasattr(v, "item") else v


@dataclass(eq=False)
class ListGroup:
    """A group of aligned blocks; flat when ``cur_idx >= 0``."""

    blocks: dict[str, Block]
    size: int
    cur_idx: int = -1

    @property
    def is_flat(self) -> bool:
        return self.cur_idx >= 0

    @property
    def tuple_count(self) -> int:
        return 1 if self.is_flat else self.size


@dataclass
class IntermediateChunk:
    """The union of list groups currently in flight, plus a key → group
    index so operators can find the group that owns a variable/property."""

    groups: list[ListGroup] = field(default_factory=list)
    key_group: dict[str, int] = field(default_factory=dict)

    def group_of(self, key: str) -> ListGroup:
        return self.groups[self.key_group[key]]

    def push_group(self, lg: ListGroup) -> None:
        gi = len(self.groups)
        self.groups.append(lg)
        for k in lg.blocks:
            self.key_group[k] = gi

    def pop_group(self) -> None:
        lg = self.groups.pop()
        for k in lg.blocks:
            del self.key_group[k]

    def add_blocks(self, key_of_group: str, new: dict[str, Block]) -> None:
        """Append blocks into the group owning ``key_of_group``."""
        gi = self.key_group[key_of_group]
        self.groups[gi].blocks.update(new)
        for k in new:
            self.key_group[k] = gi

    def remove_blocks(self, keys: list[str]) -> None:
        for k in keys:
            gi = self.key_group.pop(k)
            del self.groups[gi].blocks[k]

    def tuple_count(self) -> int:
        """Number of flat tuples this chunk represents (factorized count:
        the product of group sizes — paper §6.2, Group By And Aggregate)."""
        n = 1
        for g in self.groups:
            n *= g.tuple_count
        return n

    def flatten_columns(self, keys: list[str]) -> dict[str, np.ndarray]:
        """Materialize the Cartesian product, projected to ``keys``.

        Unflat groups multiply out in group order: earlier groups vary
        slower. Flat groups contribute a repeated scalar.
        """
        unflat = [g for g in self.groups if not g.is_flat]
        sizes = [g.size for g in unflat]
        total = int(np.prod(sizes)) if sizes else 1
        out: dict[str, np.ndarray] = {}
        for key in keys:
            g = self.group_of(key)
            block = g.blocks[key]
            if g.is_flat:
                v = block.scalar(g.cur_idx)
                out[key] = (
                    np.full(total, None, dtype=object)
                    if v is None
                    else np.full(total, v)
                )
                continue
            j = unflat.index(g)
            before = int(np.prod(sizes[:j])) if j else 1
            after = int(np.prod(sizes[j + 1 :])) if j + 1 < len(sizes) else 1
            vals = block.decoded()
            if after > 1:
                vals = np.repeat(vals, after)
            if before > 1:
                vals = np.tile(vals, before)
            out[key] = vals
        return out
