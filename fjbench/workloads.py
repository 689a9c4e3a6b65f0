"""The four workloads: set-up, timed rounds, answer checks, accuracy.

Every workload is a closed loop with one caller: an optimizer waits for
each estimate before it asks for the next.  A run attempts whole rounds
(``Workload.rounds``); generating a round and checking its answers
happen outside the timed phase, so ``ops_per_s`` counts only the
program's work.  A wrong answer counts as a failed operation.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap
from inputs import Inputs, insert_batches
from repro.api import EstimateRequest, UpdateRequest, coerce_query
from repro.api.messages import p_error, q_error
from repro.cluster import ClusterModel
from repro.core.estimator import FactorJoin, FactorJoinConfig
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER
from repro.optimizer.cost import C_OUT
from repro.optimizer.dp import make_oracle, optimize
from repro.optimizer.endtoend import EndToEndRunner
from repro.plan.generator import LocalCardinalityGenerator
from repro.plan.hints import parse_hints
from repro.plan.planner import plan_query
from repro.serve import EstimationService, LocalArtifactStore
from repro.serve.httpd import serve_in_background
from repro.shard import ShardedFactorJoin
from repro.sql import parse_query
from repro.sql.query import Query, TableRef

READ, WRITE = "read", "write"


class Op:
    """One timed operation: its kind, latency and answer (or error)."""

    __slots__ = ("kind", "seconds", "answer", "error")

    def __init__(self, kind, seconds, answer=None, error=None):
        self.kind, self.seconds = kind, seconds
        self.answer, self.error = answer, error


def timed(kind: str, call, *args) -> Op:
    start = time.perf_counter()
    try:
        answer = call(*args)
    except Exception as exc:  # a failing operation is counted, not fatal
        return Op(kind, time.perf_counter() - start,
                  error=f"{type(exc).__name__}: {exc}")
    return Op(kind, time.perf_counter() - start, answer)


def rss_mib(pid: int | None = None) -> float:
    """Peak resident memory of this process, or of ``pid`` (Linux)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for process {pid}")


def score_plans(estimate, generator, accuracy_set, runner):
    """q-errors of ``estimate`` and P-errors of the plans ``generator``
    picks, against the exact counts of the accuracy set.  The oracle plan
    is the DP optimum under true cardinalities, so no chosen plan can cost
    less under them; a plan that does is a wrong answer."""
    qerrors, perrors, problems = [], [], []
    for sql, truth in accuracy_set:
        query = parse_query(sql)
        full = truth[frozenset(query.aliases)]
        qerrors.append(q_error(estimate(query), full))
        decision = plan_query(query, generator(), C_OUT)
        oracle_plan, _ = optimize(query, make_oracle(truth), C_OUT)
        chosen = runner.true_cost_of_plan(query, decision.plan)
        best = runner.true_cost_of_plan(query, oracle_plan)
        if chosen < best * (1 - 1e-12):
            problems.append(f"plan cheaper than the oracle's: {sql}")
        perrors.append(p_error(chosen, best))
    return qerrors, perrors, problems


class Workload:
    """Base class: subclasses define set-up, rounds and checks."""

    name = ""
    setup_repeats = 5

    def __init__(self, inputs: Inputs, recorder, workdir: str):
        self.inputs = inputs
        self.recorder = recorder
        self.workdir = workdir
        self.problems: list[str] = []

    # -- hooks ---------------------------------------------------------------

    def setup(self):
        raise NotImplementedError

    def teardown(self, served) -> None:
        pass

    def rounds(self):
        raise NotImplementedError

    def run_round(self, served, items) -> list[Op]:
        raise NotImplementedError

    def check(self, served, item, answer) -> str | None:
        """What is wrong with one operation's answer, or None."""
        raise NotImplementedError

    def check_round(self, served, items, ops: list[Op]) -> int:
        """Checks one round's answers; returns how many ops failed."""
        failed = 0
        for item, op in zip(items, ops):
            problem = op.error if op.error is not None \
                else self.check(served, item, op.answer)
            if problem is not None:
                self.fail(problem)
                failed += 1
        return failed

    def model_of(self, served):
        """The served model."""
        raise NotImplementedError

    def accuracy(self, served, accuracy_set, runner):
        model = self.model_of(served)
        return score_plans(model.estimate,
                           lambda: LocalCardinalityGenerator(model=model),
                           accuracy_set, runner)

    def model_bytes(self, served) -> int:
        return self.model_of(served).model_size_bytes()

    def peak_rss_mib(self, served) -> float:
        return rss_mib()

    def layer_extras(self, served) -> dict:
        """Per-layer numbers measured apart from the span trace."""
        return {}

    # -- helpers -------------------------------------------------------------

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# plan-cold: plan_query over a fitted BayesCard FactorJoin, no repeats


class PlanCold(Workload):
    name = "plan-cold"
    setup_repeats = 7

    def setup(self):
        return FactorJoin().fit(self.inputs.database)

    def rounds(self):
        return self.inputs.stream()

    def run_round(self, model, items):
        def plan(sql):
            return plan_query(sql, LocalCardinalityGenerator(model=model))
        return [timed(READ, plan, sql) for sql in items]

    def check(self, model, sql, decision):
        leaves = decision.plan.leaves()
        aliases = decision.query.aliases
        cards = list(decision.cardinalities.values())
        if not all(math.isfinite(c) and c >= 0 for c in cards):
            return f"non-finite or negative estimate in {cards}: {sql}"
        if sorted(leaves) != sorted(aliases):
            return f"plan leaves {leaves} != aliases {aliases}: {sql}"
        if parse_hints(decision.hint_text()) != decision.hints:
            return f"hint text does not round-trip: {sql}"
        return None

    def model_of(self, model):
        return model


# ---------------------------------------------------------------------------
# http-hot: keep-alive POST /v1/estimate of a cached pool


class Served:
    """A fitted model behind an EstimationService and an HTTP server."""

    def __init__(self, model, service, server, thread, connection):
        self.model, self.service = model, service
        self.server, self.thread = server, thread
        self.connection = connection


class HttpHot(Workload):
    name = "http-hot"
    setup_repeats = 5

    def __init__(self, *args):
        super().__init__(*args)
        self.pool, self.weights = self.inputs.pool()
        self.reference: dict[str, float] = {}

    def setup(self):
        model = FactorJoin().fit(self.inputs.database)
        service = EstimationService()
        service.register("default", model)
        for sql in self.pool:  # warm-up: every pool text is cached
            service.serve_estimate(EstimateRequest(query=sql))
        server, thread = serve_in_background(service)
        connection = http.client.HTTPConnection(*server.server_address)
        served = Served(model, service, server, thread, connection)
        self._post(served, self.pool[0])
        return served

    def teardown(self, served):
        served.connection.close()
        served.server.shutdown()
        served.server.server_close()
        served.thread.join(timeout=10)

    def rounds(self):
        return self.inputs.pool_requests(self.pool, self.weights)

    def _post(self, served, sql):
        body = json.dumps({"sql": sql}).encode()
        span = self.recorder.open("http.request") \
            if self.recorder.enabled else None
        try:
            served.connection.request(
                "POST", "/v1/estimate", body,
                {"Content-Type": "application/json"})
            response = served.connection.getresponse()
            payload = response.read()
        finally:
            if span is not None:
                self.recorder.close(span)
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {payload[:200]!r}")
        return json.loads(payload)["estimate"]

    def run_round(self, served, items):
        return [timed(READ, self._post, served, sql) for sql in items]

    def check(self, served, sql, answer):
        if sql not in self.reference:
            self.reference[sql] = served.model.estimate(parse_query(sql))
        if answer != self.reference[sql]:
            return (f"HTTP answer {answer!r} != direct "
                    f"{self.reference[sql]!r}: {sql}")
        return None

    def model_of(self, served):
        return served.model

    def layer_extras(self, served):
        """``obs.request_overhead_us``: cache hits served in process by
        the instrumented service and by one built with NULL_METRICS and
        NULL_TRACER, alternating, difference of the medians."""
        bare = EstimationService(metrics=NULL_METRICS, tracer=NULL_TRACER)
        bare.register("default", served.model)
        for sql in self.pool:
            bare.serve_estimate(EstimateRequest(query=sql))
        timings = {id(served.service): [], id(bare): []}
        requests = self.rounds()
        for _ in range(16):
            for sql in next(requests):
                for service in (served.service, bare):
                    start = time.perf_counter()
                    service.serve_estimate(EstimateRequest(query=sql))
                    timings[id(service)].append(time.perf_counter() - start)
        return {"obs.request_overhead_us": 1e6 * (
            statistics.median(timings[id(served.service)])
            - statistics.median(timings[id(bare)]))}


# ---------------------------------------------------------------------------
# serve-writes: insert batches interleaved with reads of the written table


class ServeWrites(Workload):
    name = "serve-writes"
    setup_repeats = 7

    def __init__(self, *args):
        super().__init__(*args)
        self.stale, self.inserts = self.inputs.update_split()

    def setup(self):
        service = EstimationService()
        service.register("default", FactorJoin().fit(self.stale))
        return service

    def _count_rows(self) -> None:
        # exact row counts of the served data, for the unfiltered check
        self.row_counts = {name: len(self.stale.table(name))
                           for name in self.stale.table_names}

    def rounds(self):
        self._count_rows()
        return self.inputs.write_rounds(self.inserts)

    def run_round(self, service, items):
        table, rows, reads, _ = items
        ops = [timed(WRITE, service.serve_update,
                     UpdateRequest(table=table, rows=rows))]
        ops += [timed(READ, service.serve_estimate,
                      EstimateRequest(query=sql)) for sql in reads]
        return ops

    def check_round(self, service, items, ops):
        table, rows, reads, last = items
        if ops[0].error is None:
            self.row_counts[table] += len(rows)
        failed = super().check_round(
            service, [(WRITE, table)] + [(READ, sql) for sql in reads], ops)
        if last:
            # every held-out row is in: serve a model fitted on the older
            # half again (outside the timed phase), so every epoch of
            # writes starts from the same state
            service.register("default", FactorJoin().fit(self.stale))
            self._count_rows()
        return failed

    def check(self, service, item, answer):
        kind, text = item
        model = self.model_of(service)
        if kind == WRITE:
            whole = model.estimate(Query([TableRef(text, text)], []))
            if whole != self.row_counts[text]:
                return (f"unfiltered {text} estimate {whole!r} != exact row "
                        f"count {self.row_counts[text]} after the insert")
            return None
        direct = model.estimate(parse_query(text))
        if answer.estimate != direct:
            return f"served {answer.estimate!r} != uncached {direct!r}: {text}"
        return None

    def accuracy(self, service, accuracy_set, runner):
        """After every held-out row is inserted, the data equal the full
        database the accuracy set was counted on."""
        for name in sorted(self.inserts):
            for rows in insert_batches(self.inserts[name]):
                service.serve_update(UpdateRequest(table=name, rows=rows))
        return score_plans(
            lambda q: service.serve_estimate(
                EstimateRequest(query=q)).estimate,
            lambda: LocalCardinalityGenerator(service=service),
            accuracy_set, runner)

    def model_of(self, service):
        return service.registry.get("default")


# ---------------------------------------------------------------------------
# cluster-tcp: a truescan ensemble served through one TCP worker


N_SHARDS = 4
#: one worker process: in a closed loop it and the benchmark process take
#: turns, so a run does not hang on how the host schedules parallel work;
#: with two workers on two CPUs the run-to-run spread of op_p90_ms
#: reached 0.43
N_WORKERS = 1
CLUSTER_CONFIG = dict(table_estimator="truescan", seed=0)


class ClusterServed:
    def __init__(self, ensemble, model, procs, directory):
        self.ensemble, self.model = ensemble, model
        self.procs, self.directory = procs, directory


class ClusterTcp(Workload):
    name = "cluster-tcp"
    setup_repeats = 5

    def __init__(self, *args):
        super().__init__(*args)
        config = FactorJoinConfig(**CLUSTER_CONFIG)
        database = self.inputs.database
        # the checker: one unsharded truescan model under the ensemble's
        # global binnings, fitted in this process
        self.reference = FactorJoin(config).fit(
            database, shared_binnings=FactorJoin(config).build_binnings(
                database))
        self.instances = 0

    def _start_workers(self, store: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = bootstrap.SRC
        procs = [subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--listen",
             "127.0.0.1:0", "--store", store],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True) for _ in range(N_WORKERS)]
        addresses = []
        for proc in procs:
            line = proc.stdout.readline().strip()
            if not line.startswith("worker listening on "):
                self._stop(procs)
                raise RuntimeError(f"worker did not start: {line!r}")
            addresses.append(line.split()[3])
        return procs, addresses

    @staticmethod
    def _stop(procs) -> None:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait(timeout=30)
            proc.stdout.close()

    def setup(self):
        self.instances += 1
        directory = os.path.join(self.workdir, f"cluster-{self.instances}")
        ensemble = ShardedFactorJoin(
            FactorJoinConfig(**CLUSTER_CONFIG), n_shards=N_SHARDS,
            parallel="serial").fit(self.inputs.database)
        ensemble.save(os.path.join(directory, "ensemble"))
        store = os.path.join(directory, "store")
        procs, addresses = self._start_workers(store)
        try:
            model = ClusterModel.from_artifact(
                os.path.join(directory, "ensemble"), addresses=addresses,
                store=LocalArtifactStore(store))
            model.estimate(parse_query(next(self.inputs.stream())[0]))
        except Exception:
            self._stop(procs)
            raise
        return ClusterServed(ensemble, model, procs, directory)

    def teardown(self, served):
        try:
            served.model.close()
        finally:
            self._stop(served.procs)
            shutil.rmtree(served.directory, ignore_errors=True)

    def rounds(self):
        return self.inputs.stream()

    def run_round(self, served, items):
        def estimate(sql):
            return served.model.estimate(coerce_query(sql))
        return [timed(READ, estimate, sql) for sql in items]

    def check(self, served, sql, answer):
        direct = self.reference.estimate(parse_query(sql))
        if answer != direct:
            return f"cluster {answer!r} != unsharded {direct!r}: {sql}"
        return None

    def model_of(self, served):
        return served.model

    def model_bytes(self, served):
        # the in-process ensemble that was saved; the served ClusterModel
        # would fetch its shard models from the workers to measure them
        return served.ensemble.model_size_bytes()

    def peak_rss_mib(self, served):
        return rss_mib() + sum(rss_mib(p.pid) for p in served.procs)


WORKLOADS = {cls.name: cls for cls in (PlanCold, HttpHot, ServeWrites,
                                       ClusterTcp)}


def accuracy_inputs(inputs: Inputs):
    runner = EndToEndRunner(inputs.database)
    return inputs.accuracy_set(runner), runner

