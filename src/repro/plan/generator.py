"""Cardinality generators: the estimator as an optimizer's oracle.

A :class:`CardinalityGenerator` answers per-join-subset cardinalities for
an external optimizer — the injection interface of the paper's end-to-end
evaluation (estimates are *injected into* a planner; the planner never
calls the model directly).  Two backends answer identically:

- :class:`LocalCardinalityGenerator` holds a fitted
  :class:`~repro.api.protocol.CardinalityModel` in process and asks it
  for whole sub-plan maps (``estimate_subplans``) and single induced
  sub-queries (``estimate``);
- :class:`RemoteCardinalityGenerator` speaks to a running server over
  ``POST /v1/subplans`` / ``POST /v1/estimate`` over one kept-alive
  stdlib HTTP connection — the deployment shape where the optimizer and
  the estimator are separate processes.

Both share one memo keyed on the canonical, alias-invariant
:meth:`~repro.sql.query.Query.subplan_key`, so a subset probed under one
query (or one alias spelling) is answered from memory when any later
query induces the same sub-plan.  JSON serializes finite floats
losslessly, so the remote backend returns bit-identical numbers to the
local one against the same model — the agreement the plan CI gate
asserts.
"""

from __future__ import annotations

import http.client
import json
import threading
from urllib.parse import urlsplit

from repro.api import coerce_query
from repro.errors import ReproError
from repro.optimizer.dp import CardOracle
from repro.sql.query import Query


class CardinalityGenerator:
    """Answers join-subset cardinality probes for an optimizer.

    Subclasses implement :meth:`_subplan_map` (the whole connected
    sub-plan lattice of a query) and :meth:`_estimate_query` (one
    arbitrary induced sub-query — the escape hatch for off-lattice
    probes such as the cross products a disconnected join graph forces).
    The base class owns the :meth:`~repro.sql.query.Query.subplan_key`
    memo and the optimizer-facing surface: :meth:`prepare`,
    :meth:`card`, and :meth:`oracle`.
    """

    def __init__(self):
        self._memo: dict[tuple, float] = {}

    # -- backend hooks ----------------------------------------------------

    def _subplan_map(self, query: Query) -> dict[frozenset, float]:
        raise NotImplementedError

    def _estimate_query(self, query: Query) -> float:
        raise NotImplementedError

    # -- optimizer surface ------------------------------------------------

    @property
    def memo_size(self) -> int:
        """Memoized sub-plan entries held so far."""
        return len(self._memo)

    def prepare(self, query: Query | str) -> dict[frozenset, float]:
        """Fetch (or recall) the whole connected sub-plan map of
        ``query`` — singletons included — memoizing every entry.

        One backend round trip answers all of a query's lattice probes;
        entries already memoized under their canonical keys (from an
        earlier overlapping query) skip the backend entirely.
        """
        query = coerce_query(query)
        keys = query.subplan_keys(min_tables=1)
        if all(k in self._memo for k in keys.values()):
            return {subset: self._memo[k] for subset, k in keys.items()}
        cards = self._subplan_map(query)
        for subset, value in cards.items():
            key = keys.get(subset)
            if key is None:
                key = query.subquery(subset).subplan_key()
            self._memo[key] = float(value)
        return {s: float(v) for s, v in cards.items()}

    def card(self, query: Query | str, aliases) -> float:
        """The estimated cardinality of one alias subset of ``query``.

        Probes hit the memo first (canonical key, so alias spelling and
        the enclosing query do not matter); misses estimate the induced
        sub-query through the backend and memoize the answer.
        """
        query = coerce_query(query)
        subset = frozenset(aliases)
        unknown = subset - set(query.aliases)
        if unknown:
            raise ValueError(
                f"subset names aliases {sorted(unknown)} not in the query")
        if not subset:
            raise ValueError("cannot estimate an empty alias subset")
        sub = query.subquery(subset)
        key = sub.subplan_key()
        value = self._memo.get(key)
        if value is None:
            value = float(self._estimate_query(sub))
            self._memo[key] = value
        return value

    def oracle(self, query: Query | str) -> CardOracle:
        """A :data:`~repro.optimizer.dp.CardOracle` over ``query`` for
        the DP optimizer: the lattice is prefetched in one round trip,
        off-lattice probes fall back to :meth:`card`."""
        query = coerce_query(query)
        cards = self.prepare(query)

        def probe(aliases: frozenset) -> float:
            subset = frozenset(aliases)
            value = cards.get(subset)
            if value is not None:
                return value
            return self.card(query, subset)

        return probe


class LocalCardinalityGenerator(CardinalityGenerator):
    """A generator over an in-process
    :class:`~repro.api.protocol.CardinalityModel` (a fitted estimator or
    a whole :class:`~repro.serve.service.EstimationService` via
    ``service=``, which adds its two-level cache in front)."""

    def __init__(self, model=None, service=None, model_name: str | None = None):
        super().__init__()
        if (model is None) == (service is None):
            raise ValueError(
                "provide exactly one of 'model' (a fitted "
                "CardinalityModel) or 'service' (an EstimationService)")
        self._model = model
        self._service = service
        self._model_name = model_name

    def _subplan_map(self, query: Query) -> dict[frozenset, float]:
        if self._service is not None:
            return self._service.estimate_subplans(
                query, model=self._model_name, min_tables=1)
        return self._model.estimate_subplans(query, min_tables=1)

    def _estimate_query(self, query: Query) -> float:
        if self._service is not None:
            return self._service.estimate(
                query, model=self._model_name).estimate
        return float(self._model.estimate(query))


class GeneratorError(ReproError):
    """The remote generator's server answered an error or was unreachable."""


class RemoteCardinalityGenerator(CardinalityGenerator):
    """A generator over a running server's versioned HTTP API.

    Lattice fetches go through ``POST /v1/subplans`` (one request per
    unseen query); off-lattice probes through ``POST /v1/estimate`` on
    the induced sub-query's SQL.  Every request reuses one kept-alive
    :class:`http.client.HTTPConnection` (guarded by a lock, reopened
    once when the server dropped it while idle) — no client dependency,
    no connection set-up per probe.  A failed request raises
    :class:`GeneratorError` carrying the server's taxonomy error code.
    :meth:`close` (or leaving a ``with`` block) releases the connection.
    """

    def __init__(self, base_url: str, model: str | None = None,
                 timeout: float = 30.0):
        super().__init__()
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError(
                f"base_url must be an http(s) URL, got {base_url!r}")
        self._connect = (http.client.HTTPSConnection
                         if parts.scheme == "https"
                         else http.client.HTTPConnection)
        self._netloc, self._prefix = parts.netloc, parts.path
        self._model_name = model
        self._timeout = timeout
        self._lock = threading.Lock()
        self._connection: http.client.HTTPConnection | None = None

    def close(self) -> None:
        """Close the kept-alive connection (the next request reopens)."""
        with self._lock:
            self._drop()

    def __enter__(self) -> "RemoteCardinalityGenerator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _drop(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def _round_trip(self, route: str, body: bytes) -> tuple[int, str, bytes]:
        """``(status, reason, body)`` of one POST on the kept-alive
        connection.  A reused connection that fails with a connection
        error was dropped by the server while idle: reopen and send once
        more (both routes are reads, so a repeat is harmless)."""
        for retry in (True, False):
            reused = self._connection is not None
            if not reused:
                self._connection = self._connect(self._netloc,
                                                 timeout=self._timeout)
            try:
                self._connection.request(
                    "POST", self._prefix + route, body,
                    {"Content-Type": "application/json"})
                response = self._connection.getresponse()
                data = response.read()
            except BaseException as exc:
                # the connection's state is unknown after any failure
                self._drop()
                if reused and retry and isinstance(exc, ConnectionError):
                    continue
                raise
            if response.will_close:
                self._drop()
            return response.status, response.reason, data

    def _post(self, route: str, payload: dict) -> dict:
        body = json.dumps(payload).encode()
        try:
            with self._lock:
                status, reason, data = self._round_trip(route, body)
        except (OSError, http.client.HTTPException) as exc:
            raise GeneratorError(
                f"cannot reach {self.base_url}{route}: {exc}") from None
        if status == 200:
            return json.loads(data)
        try:
            error = json.loads(data).get("error", {})
        except Exception:
            error = {}
        if not isinstance(error, dict):
            error = {"message": str(error)}
        raise GeneratorError(
            f"{route} answered {status} "
            f"[{error.get('code', 'unknown')}]: "
            f"{error.get('message', reason)}")

    def _subplan_map(self, query: Query) -> dict[frozenset, float]:
        payload = self._post("/v1/subplans", {
            "sql": query.to_sql(), "model": self._model_name,
            "min_tables": 1})
        return {frozenset(key.split(",")): float(value)
                for key, value in payload["subplans"].items()}

    def _estimate_query(self, query: Query) -> float:
        payload = self._post("/v1/estimate", {
            "sql": query.to_sql(), "model": self._model_name})
        return float(payload["estimate"])
