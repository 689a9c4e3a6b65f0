"""The benchmark's inputs, all made from one ``--seed``.

The database is STATS (``build_stats_database``) at ``SCALE`` with data
seed ``DATA_SEED``, and the join templates are the 70 STATS-CEB templates
``build_stats_ceb`` samples from it; both are fixed.  So is the accuracy
set, one query per template drawn with ``ACCURACY_SEED``, whose exact
counts every q-error and P-error is computed against: accuracy is a
deterministic function of the program, and a sample of 70 queries that
changed with the seed would move q-error p90 by more than 100% between
seeds.  Everything else a run sends to the program is drawn from the
run's seed: the query streams (the templates instantiated with new
constants), the ``http-hot`` pool and its popularity, and the
``serve-writes`` interleaving.

Regenerate the inputs of a seed as files (the program is never given
these files; runs make the same inputs in memory)::

    python3 fjbench/inputs.py --seed 1 --out bench-inputs
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

import bootstrap  # noqa: F401  (puts src/ on the path)
from repro.engine.executor import CardinalityExecutor
from repro.optimizer.endtoend import EndToEndRunner
from repro.sql.predicates import Between, Comparison, In, conjoin
from repro.sql.query import Query
from repro.workloads.benchmark import split_for_update
from repro.workloads.querygen import QueryGenerator
from repro.workloads.stats_ceb import build_stats_database

SCALE = 1.0
DATA_SEED = 0
N_TEMPLATES = 70
MAX_TABLES = 5
MAX_PREDICATES = 16
FILTER_PROBABILITY = 0.6

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
ACCURACY_SEED = 0

#: queries in the accuracy set (one per template, so every template
#: contributes one answer to every q-error and P-error)
N_ACCURACY = N_TEMPLATES
#: distinct query texts ``http-hot`` sends; under the service's
#: 1024-entry query cache, so after warm-up every request is a hit
POOL_SIZE = 256
#: Zipf exponent of the pool's popularity.  An assumption: nothing in the
#: paper or the repo records how often a served query text repeats.  With
#: every pool text cached it only decides which texts are parsed most.
POOL_ZIPF = 1.1
#: rows per ``serve_update`` insert batch
WRITE_BATCH = 200
#: mean reads after each write in ``serve-writes``; each write is followed
#: by a seeded number of reads, uniform on 1 .. 2 * READS_PER_WRITE - 1.
#: An assumption: the paper's Table 5 experiment inserts the new data and
#: then estimates, so it gives no read/write mix.
READS_PER_WRITE = 4
#: stream rounds (and ten times as many write rounds) that
#: ``python3 fjbench/inputs.py`` writes per workload
WRITTEN_ROUNDS = 2

# independent random streams per purpose, all derived from the seed
STREAM, POOL, ACCURACY, WRITES = 1, 2, 3, 4


def rng_for(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def insert_batches(rows) -> list:
    """``rows`` in order, as tables of at most ``WRITE_BATCH`` rows."""
    return [rows.take(list(range(start, min(start + WRITE_BATCH, len(rows)))))
            for start in range(0, len(rows), WRITE_BATCH)]


class Instantiator:
    """Fills a template with random filter constants drawn from the data.

    The predicate shapes follow ``QueryGenerator``: equality or IN on small
    domains, one- and two-sided ranges at random quantiles on wide ones.
    Column values, their sorted order and their distinct values are
    computed once, so a query costs well under a millisecond.
    """

    def __init__(self, database, rng: np.random.Generator):
        self._db = database
        self._rng = rng
        self._columns: dict[tuple[str, str], tuple] = {}

    def _column(self, table: str, column: str) -> tuple:
        key = (table, column)
        if key not in self._columns:
            values = self._db.table(table)[column].non_null_values()
            self._columns[key] = (values, np.sort(values), np.unique(values))
        return self._columns[key]

    def _quantile(self, ordered: np.ndarray, q: float) -> int:
        return int(ordered[int(q * (len(ordered) - 1))])

    def predicate(self, table: str, column: str):
        rng = self._rng
        values, ordered, distinct = self._column(table, column)
        if len(values) == 0:
            return None
        if len(distinct) <= 15:
            if rng.random() < 0.5:
                return Comparison(column, "=",
                                  int(values[rng.integers(0, len(values))]))
            size = int(rng.integers(2, min(6, len(distinct)) + 1))
            picks = rng.choice(distinct, size=size, replace=False)
            return In(column, [int(v) for v in sorted(picks)])
        kind = rng.random()
        if kind < 0.45:
            if rng.random() < 0.5:
                return Comparison(column, "<=", self._quantile(
                    ordered, rng.uniform(0.3, 0.95)))
            return Comparison(column, ">=", self._quantile(
                ordered, rng.uniform(0.05, 0.7)))
        if kind < 0.75:
            lo_q = rng.uniform(0.0, 0.5)
            hi_q = rng.uniform(lo_q + 0.25, 1.0)
            return Between(column, self._quantile(ordered, lo_q),
                           self._quantile(ordered, hi_q))
        if rng.random() < 0.5:
            return Comparison(column, "<", self._quantile(
                ordered, rng.uniform(0.3, 0.95)))
        return Comparison(column, ">", self._quantile(
            ordered, rng.uniform(0.05, 0.7)))

    def query(self, template) -> Query:
        rng = self._rng
        filters = {}
        budget = MAX_PREDICATES
        order = rng.permutation(len(template.tables))
        for index in order:
            tref = template.tables[int(index)]
            if budget <= 0 or rng.random() > FILTER_PROBABILITY:
                continue
            attrs = self._db.schema.table(tref.table).attribute_columns
            n_preds = int(rng.integers(1, min(3, len(attrs), budget) + 1))
            chosen = rng.choice(len(attrs), size=n_preds, replace=False)
            preds = [self.predicate(tref.table, attrs[int(i)])
                     for i in chosen]
            preds = [p for p in preds if p is not None]
            if preds:
                filters[tref.alias] = conjoin(preds)
                budget -= len(preds)
        if not filters:  # at least one predicate, as the CEB queries have
            tref = template.tables[0]
            attrs = self._db.schema.table(tref.table).attribute_columns
            filters[tref.alias] = self.predicate(tref.table, attrs[0])
        return Query(template.tables, template.joins, filters)


@dataclass
class Inputs:
    """The fixed database and templates plus the seeded generators."""

    seed: int
    database: object
    templates: list

    @classmethod
    def build(cls, seed: int, scale: float = SCALE) -> "Inputs":
        database = build_stats_database(scale=scale, seed=DATA_SEED)
        templates = QueryGenerator(database, seed=DATA_SEED + 1) \
            .sample_templates(N_TEMPLATES, max_tables=MAX_TABLES)
        return cls(seed, database, templates)

    def instantiator(self, purpose: int) -> Instantiator:
        return Instantiator(self.database, rng_for(self.seed, purpose))

    def stream(self):
        """Rounds of SQL texts: each round instantiates every template
        once with new constants, in a seeded order."""
        inst = self.instantiator(STREAM)
        order_rng = rng_for(self.seed, STREAM + 100)
        while True:
            order = order_rng.permutation(len(self.templates))
            yield [inst.query(self.templates[int(i)]).to_sql()
                   for i in order]

    def pool(self) -> tuple[list[str], np.ndarray]:
        """``POOL_SIZE`` distinct SQL texts and their Zipf popularity."""
        inst = self.instantiator(POOL)
        texts: list[str] = []
        seen: set[str] = set()
        i = 0
        while len(texts) < POOL_SIZE:
            sql = inst.query(self.templates[i % len(self.templates)]).to_sql()
            i += 1
            if sql not in seen:
                seen.add(sql)
                texts.append(sql)
        weights = 1.0 / np.arange(1, POOL_SIZE + 1) ** POOL_ZIPF
        return texts, weights / weights.sum()

    def pool_requests(self, texts: list[str], weights: np.ndarray):
        """Rounds of 16 requests drawn from the pool by popularity."""
        rng = rng_for(self.seed, POOL + 100)
        while True:
            picks = rng.choice(len(texts), size=16, p=weights)
            yield [texts[int(i)] for i in picks]

    def update_split(self):
        """(stale database, held-out insert rows per table) — Table 5's
        split on the date columns."""
        return split_for_update(self.database, 0.5)

    def write_rounds(self, inserts: dict):
        """Rounds of one insert batch and a seeded number of reads over
        the written table, as ``(table, rows, reads, last)``.

        An epoch inserts every held-out row once: each table's rows in
        order, in batches of ``WRITE_BATCH``, the tables interleaved in a
        seeded order.  ``last`` marks an epoch's final round, after which
        the caller restores the model fitted on the older half, so the
        data never outgrow the full database.
        """
        rng = rng_for(self.seed, WRITES)
        inst = self.instantiator(WRITES + 100)
        names = sorted(inserts)
        by_table = {n: [t for t in self.templates
                        if any(r.table == n for r in t.tables)]
                    for n in names}
        batches = {n: insert_batches(inserts[n]) for n in names}
        order = [n for n in names for _ in batches[n]]
        while True:
            next_batch = dict.fromkeys(names, 0)
            epoch = rng.permutation(len(order))
            for step, index in enumerate(epoch):
                table = order[int(index)]
                rows = batches[table][next_batch[table]]
                next_batch[table] += 1
                templates = by_table[table] or self.templates
                reads = [inst.query(templates[int(rng.integers(
                    0, len(templates)))]).to_sql()
                    for _ in range(int(rng.integers(
                        1, 2 * READS_PER_WRITE)))]
                yield table, rows, reads, step == len(epoch) - 1

    def accuracy_set(self, runner: EndToEndRunner) -> list[tuple[str, dict]]:
        """One query per template with a non-empty result, and its exact
        sub-plan counts (the full query's count included); the same
        for every run seed."""
        inst = Instantiator(self.database, rng_for(ACCURACY_SEED, ACCURACY))
        out = []
        for template in self.templates[:N_ACCURACY]:
            for _ in range(8):
                query = inst.query(template)
                truth = runner.true_subplan_cards(query)
                if truth[frozenset(query.aliases)] > 0:
                    break
            out.append((query.to_sql(), truth))
        return out


def _write_lines(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for row in rows:
            out.write(json.dumps(row) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True,
                        help="directory to write the inputs into")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    inputs = Inputs.build(args.seed)
    executor = CardinalityExecutor(inputs.database)
    runner = EndToEndRunner(inputs.database)

    def counted(sql_texts):
        from repro.sql import parse_query
        return [{"sql": s, "count": executor.cardinality(parse_query(s))}
                for s in sql_texts]

    streams = inputs.stream()
    _write_lines(os.path.join(args.out, "plan-cold.jsonl"),
                 [row for _ in range(WRITTEN_ROUNDS)
                  for row in counted(next(streams))])
    texts, weights = inputs.pool()
    _write_lines(os.path.join(args.out, "http-hot-pool.jsonl"),
                 [dict(row, weight=float(w))
                  for row, w in zip(counted(texts), weights)])
    _, inserts = inputs.update_split()
    writes = inputs.write_rounds(inserts)
    rows = []
    for _ in range(WRITTEN_ROUNDS * 10):
        table, batch, reads, _ = next(writes)
        rows.append({"table": table, "rows": len(batch), "reads": reads})
    _write_lines(os.path.join(args.out, "serve-writes.jsonl"), rows)
    _write_lines(os.path.join(args.out, "accuracy.jsonl"), [
        {"sql": sql, "count": truth[max(truth, key=len)],
         "subplans": {",".join(sorted(s)): c for s, c in truth.items()}}
        for sql, truth in inputs.accuracy_set(runner)])
    print(f"wrote the inputs of seed {args.seed} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
