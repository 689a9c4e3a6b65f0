"""Cross-check the exact counts every q-error and P-error relies on.

``repro.engine.CardinalityExecutor`` is the benchmark's source of truth.
This loads a reduced STATS instance into the standard library's sqlite3
and compares its ``COUNT(*)`` with the executor's on the one- and
two-table sub-queries of the workload's queries (a stream round and the
accuracy set).  Larger joins are left out: sqlite3 needs minutes for the
first multi-way STATS queries even at scale 1.

    python3 fjbench/crosscheck.py --seed 1
    python3 fjbench/crosscheck.py --seed 7

Exits non-zero on the first disagreement.
"""

from __future__ import annotations

import argparse
import sqlite3
import sys

import bootstrap  # noqa: F401  (puts src/ on the path)
from inputs import (ACCURACY, ACCURACY_SEED, DEFAULT_SEED, Inputs,
                    Instantiator, rng_for)
from repro.engine.executor import CardinalityExecutor

#: the reduced STATS instance the counts are compared on
CROSSCHECK_SCALE = 0.1
#: stream rounds whose sub-queries are compared (besides the accuracy set)
ROUNDS = 2


def load(database) -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    for name in database.table_names:
        table = database.table(name)
        columns = table.column_names
        connection.execute(
            f'CREATE TABLE "{name}" ({", ".join(columns)})')
        data = []
        for column in columns:
            col = table[column]
            data.append([None if null else int(value)
                         for value, null in zip(col.values, col.null_mask)])
        connection.executemany(
            f'INSERT INTO "{name}" VALUES ({", ".join("?" * len(columns))})',
            zip(*data))
    return connection


def small_queries(inputs: Inputs, rounds: int) -> list:
    """Distinct one- and two-table sub-queries of the workload's queries."""
    from repro.sql import parse_query

    stream = inputs.stream()
    texts = [sql for _ in range(rounds) for sql in next(stream)]
    accuracy = Instantiator(inputs.database, rng_for(ACCURACY_SEED, ACCURACY))
    texts += [accuracy.query(t).to_sql() for t in inputs.templates]
    seen, out = set(), []
    for sql in texts:
        query = parse_query(sql)
        subsets = [frozenset([a]) for a in query.aliases]
        subsets += [s for s in query.connected_subsets(min_tables=2)
                    if len(s) == 2]
        for subset in subsets:
            sub = query.subquery(set(subset))
            text = sub.to_sql()
            if text not in seen:
                seen.add(text)
                out.append(sub)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    inputs = Inputs.build(args.seed, scale=CROSSCHECK_SCALE)
    connection = load(inputs.database)
    executor = CardinalityExecutor(inputs.database)
    queries = small_queries(inputs, ROUNDS)
    try:
        for query in queries:
            sql = query.to_sql()
            expected = connection.execute(sql).fetchone()[0]
            got = executor.cardinality(query)
            if got != expected:
                print(f"MISMATCH executor {got} != sqlite3 {expected}: {sql}")
                return 1
    finally:
        connection.close()
    print(f"{len(queries)} one- and two-table queries of seed {args.seed} "
          f"at scale {CROSSCHECK_SCALE}: executor counts equal sqlite3's")
    return 0


if __name__ == "__main__":
    sys.exit(main())
