"""DuckDB correctness check for benchmark requests.

Each template's SQL comes from :func:`repro.proc.plan.to_sql`. A
template whose literals change per request is checked with one grouped
query: its parameters become columns of a ``__req`` table
(``r.<slot>``), each distinct parameter row gets a ``pid``, and the
answer of every row comes back tagged with that ``pid``. A scan range is
two more parameters, ``r.lo <= first._id < r.hi``.

Counts compare as exact Python ints. Projections compare as multisets
of rows: the program's rows are loaded into DuckDB, and both sides are
reduced there to a per-request fingerprint (row count, sum of 64-bit
row hashes). Nothing is compared through ``str``.
"""
from __future__ import annotations

import dataclasses

import duckdb
import numpy as np
import pandas as pd

from repro.proc.plan import Predicate, QuerySpec, to_sql


class Slot:
    """A per-request literal of a template predicate."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # rendered by to_sql as a column reference
        return f"r.{self.name}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Slot) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


def slots_of(spec: QuerySpec) -> list[str]:
    names = [p.value.name for p in spec.predicates if isinstance(p.value, Slot)]
    return list(dict.fromkeys(names))


def bind(spec: QuerySpec, params: dict) -> QuerySpec:
    """The concrete spec the program receives: slots replaced by values."""
    preds = [
        dataclasses.replace(p, value=params[p.value.name])
        if isinstance(p.value, Slot) else p
        for p in spec.predicates
    ]
    return dataclasses.replace(spec, predicates=preds)


def first_var(spec: QuerySpec) -> str:
    if spec.join_order:
        return spec.join_order[0]
    for e in spec.edges:
        return e.src
    return next(iter(spec.vertices))


def template_sql(spec: QuerySpec, schema, *, ranged: bool) -> tuple[str, list[str]]:
    """SQL of a template and the ``__req`` columns it reads."""
    cols = slots_of(spec)
    preds = list(spec.predicates)
    if ranged:
        v = first_var(spec)
        preds += [Predicate(v, "_id", ">=", Slot("lo")),
                  Predicate(v, "_id", "<", Slot("hi"))]
        cols += ["lo", "hi"]
    sql = to_sql(dataclasses.replace(spec, predicates=preds), schema)
    if not cols:
        return sql, cols
    head, tail = sql.split(" FROM ", 1)
    select = head.removeprefix("SELECT ")
    sql = f"SELECT r.pid AS __pid, {select} FROM __req AS r CROSS JOIN {tail}"
    if spec.returns == "count":
        sql += " GROUP BY r.pid"
    return sql, cols


def exact_count(result) -> int | None:
    """A count(*) result as a Python int; None if it is not an integer."""
    if isinstance(result, (int, np.integer)) and not isinstance(result, bool):
        return int(result)
    return None


class Oracle:
    """DuckDB over the relational form of one dataset."""

    def __init__(self, data, *, join_order: bool, tmp_dir: str) -> None:
        self.schema = data.schema
        self.con = duckdb.connect(config={
            "threads": 2, "memory_limit": "2GB", "temp_directory": tmp_dir,
        })
        if not join_order:
            # Path templates are written in scan order; DuckDB's join
            # reordering can pick a plan that materializes all 2-hop paths.
            self.con.execute("SET disabled_optimizers = 'join_order'")
        for name, t in data.sql_tables().items():
            self.con.register("__src", t)
            self.con.execute(f"CREATE TABLE {name} AS SELECT * FROM __src")
            self.con.unregister("__src")

    def close(self) -> None:
        self.con.close()

    def _register_params(self, cols, requests) -> None:
        """``__req(pid, <cols>)``: distinct parameter rows; ``__map(rix,
        pid)``: the parameter row of each request index."""
        rows = [
            tuple(params[c] for c in cols if c not in ("lo", "hi"))
            + (tuple(rng) if rng is not None else ())
            for params, rng in requests
        ]
        pid_of = {p: i for i, p in enumerate(dict.fromkeys(rows))}
        req = pd.DataFrame(list(pid_of), columns=cols)
        req.insert(0, "pid", np.arange(len(pid_of)))
        self.con.register("__req", req)
        self.con.register("__map", pd.DataFrame({
            "rix": np.arange(len(rows)), "pid": [pid_of[p] for p in rows],
        }))

    def _unregister(self, *names) -> None:
        for n in names:
            self.con.unregister(n)

    def counts(self, spec: QuerySpec, requests: list[tuple[dict, tuple | None]]):
        """Exact count(*) of each ``(params, scan_range)`` of one template."""
        ranged = requests[0][1] is not None
        sql, cols = template_sql(spec, self.schema, ranged=ranged)
        if not cols:
            n = int(self.con.execute(sql).fetchone()[0])
            return [n] * len(requests)
        self._register_params(cols, requests)
        try:
            rows = self.con.execute(
                f"SELECT m.rix, e.cnt FROM __map m "
                f"LEFT JOIN ({sql}) e ON e.__pid = m.pid"
            ).fetchall()
        finally:
            self._unregister("__req", "__map")
        out = [0] * len(requests)
        for rix, cnt in rows:
            out[rix] = 0 if cnt is None else int(cnt)
        return out

    def row_mismatches(
        self, spec: QuerySpec, requests: list[tuple[dict, tuple | None]],
        frames: list[pd.DataFrame],
    ) -> set[int]:
        """Indexes of the requests whose projected rows differ, as a
        multiset, from DuckDB's.

        Both sides are reduced inside DuckDB to a fingerprint per
        request: the row count and the sum of the rows' 64-bit hashes.
        The program's columns are cast to DuckDB's column types first;
        a column of another type family is a mismatch of every request.
        """
        ranged = requests[0][1] is not None
        sql, cols = template_sql(spec, self.schema, ranged=ranged)
        names = [f"{v}_{p}" for v, p in spec.returns]
        got = pd.concat(
            [f.set_axis(names, axis=1).assign(__rix=i)[["__rix"] + names]
             for i, f in enumerate(frames)],
            ignore_index=True,
        )
        quoted = [f'"{n}"' for n in names]
        if cols:
            self._register_params(cols, requests)
            want = (f"SELECT m.rix AS __rix, {', '.join('e.' + q for q in quoted)} "
                    f"FROM ({sql}) e JOIN __map m ON e.__pid = m.pid")
        else:
            self.con.register("__map", pd.DataFrame({"rix": np.arange(len(requests))}))
            want = (f"SELECT m.rix AS __rix, {', '.join('e.' + q for q in quoted)} "
                    f"FROM ({sql}) e CROSS JOIN __map m")
        self.con.register("__got", got)
        try:
            want_types = [t for _, t, *_ in self.con.execute(f"DESCRIBE {want}").fetchall()][1:]
            got_types = [t for _, t, *_ in self.con.execute("DESCRIBE __got").fetchall()][1:]
            if len(got) and any(
                _family(g) not in (_family(w), "null") for g, w in zip(got_types, want_types)
            ):
                return set(range(len(requests)))
            casted = ", ".join(f"CAST({q} AS {t})" for q, t in zip(quoted, want_types))
            fp = "count(*), sum(hash({}))"
            mine = dict.fromkeys(range(len(requests)), (0, None))
            theirs = dict(mine)
            for rix, n, h in self.con.execute(
                f"SELECT __rix, {fp.format(casted)} FROM __got GROUP BY __rix"
            ).fetchall():
                mine[rix] = (n, h)
            for rix, n, h in self.con.execute(
                f"SELECT __rix, {fp.format(', '.join(quoted))} FROM ({want}) GROUP BY __rix"
            ).fetchall():
                theirs[rix] = (n, h)
            return {i for i in mine if mine[i] != theirs[i]}
        finally:
            self._unregister(*(["__req"] if cols else []), "__map", "__got")


def _family(duck_type: str) -> str:
    t = duck_type.upper()
    if t in ("TINYINT", "SMALLINT", "INTEGER", "BIGINT", "HUGEINT", "UTINYINT",
             "USMALLINT", "UINTEGER", "UBIGINT", "FLOAT", "DOUBLE") or t.startswith("DECIMAL"):
        return "number"
    if t == '"NULL"' or t == "NULL":
        return "null"
    return t
