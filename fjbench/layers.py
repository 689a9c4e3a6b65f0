"""Which public function of which layer each span wraps, and the
per-layer metrics computed from those spans.

Spans are recorded from outside the program: :func:`install` replaces
each function below with a wrapper for the traced run.  Where the
program's own tracer names a stage, the span uses that name (``parse``,
``model.update``).
"""

from __future__ import annotations

import repro
import repro.api.session
import repro.cluster.model
import repro.core.estimator
import repro.core.inference
import repro.core.key_groups
import repro.optimizer
import repro.optimizer.dp
import repro.plan.planner
import repro.sql
import repro.sql.parser
from repro.cluster.model import ClusterModel, ClusterTableEstimator, \
    RemoteShardModel
from repro.core.estimator import FactorJoin
from repro.core.inference import ProgressiveSubplanEstimator
from repro.estimators.base import BaseTableEstimator
from repro.plan.generator import CardinalityGenerator
from repro.serve.service import EstimationService
from repro.shard import ShardedFactorJoin
from repro.shard.ensemble import EnsembleTableEstimator


def _subclasses(cls) -> set:
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | _subclasses(sub)
    return found


def _memo_hit(needed) -> bool:
    columns, total = needed
    return not columns and not total


def install(recorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    wrap = recorder.wrap
    for module in (repro, repro.sql, repro.sql.parser):
        wrap(module, "parse_query", "parse")
    for module in (repro.core.key_groups, repro.core.estimator,
                   repro.api.session, repro.cluster.model):
        wrap(module, "query_key_groups", "core.key_groups")
    wrap(FactorJoin, "base_factor", "core.base_factor")
    for cls in sorted(_subclasses(BaseTableEstimator),
                      key=lambda c: c.__qualname__):
        if "estimate_row_count" in cls.__dict__:
            wrap(cls, "estimate_row_count", "estimators.row_count")
        if "key_distribution" in cls.__dict__:
            wrap(cls, "key_distribution", "estimators.key_distribution")
    for module in (repro.core.inference, repro.core.estimator):
        wrap(module, "fold_query", "core.fold")
    wrap(ProgressiveSubplanEstimator, "estimate_all", "core.fold")
    wrap(CardinalityGenerator, "prepare", "plan.prepare")
    for module in (repro.optimizer.dp, repro.optimizer, repro.plan.planner):
        wrap(module, "optimize", "optimizer.dp")
    wrap(EstimationService, "serve_estimate", "serve.request",
         tag=lambda response: bool(response.cached))
    wrap(EstimationService, "serve_update", "serve.update")
    wrap(FactorJoin, "update", "model.update")
    wrap(FactorJoin, "fit", "core.fit")
    wrap(ShardedFactorJoin, "fit", "core.fit")
    for name in ("gbsa_binning", "equal_width_binning",
                 "equal_depth_binning"):
        wrap(repro.core.estimator, name, "core.binning")
    wrap(EnsembleTableEstimator, "candidate_shards", "shard.candidates",
         tag=len)
    wrap(ClusterModel, "_call_batch", "cluster.probe")
    wrap(RemoteShardModel, "probe", "cluster.probe")
    wrap(ClusterTableEstimator, "missing_requirements", "cluster.memo",
         tag=_memo_hit)


#: (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("sql.parse_us", "us"),
    ("sql.parse_calls_per_op", "count"),
    ("serve.request_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.httpd_us", "us"),
    ("core.key_groups_us", "us"),
    ("core.base_factor_us", "us"),
    ("core.base_factor_calls_per_op", "count"),
    ("estimators.row_count_us", "us"),
    ("estimators.key_distribution_us", "us"),
    ("estimators.calls_per_op", "count"),
    ("core.fold_us", "us"),
    ("plan.prepare_us", "us"),
    ("optimizer.dp_us", "us"),
    ("core.update_us", "us"),
    ("serve.update_us", "us"),
    ("core.fit_s", "s"),
    ("core.fit_binning_s", "s"),
    ("shard.shards_per_probe", "count"),
    ("cluster.probe_us", "us"),
    ("cluster.probes_per_op", "count"),
    ("cluster.memo_hit_ratio", "ratio"),
    ("obs.request_overhead_us", "us"),
    ("trace.overhead_ratio", "ratio"),
]


def _per_call(entry, key="self_s", scale=1e6) -> float:
    if not entry or not entry["calls"]:
        return 0.0
    return scale * entry[key] / entry["calls"]


def _share(entry) -> float:
    if not entry or not entry["tags"]:
        return 0.0
    return sum(bool(t) for t in entry["tags"]) / len(entry["tags"])


def layer_metrics(timed: dict, setup: dict, setup_roots: list,
                  ops: int) -> dict[str, float]:
    """Per-layer metrics from span summaries (see ``spans.summarize``).

    ``timed`` summarizes the traced timed phase of ``ops`` operations,
    ``setup`` the traced set-ups, whose outermost fit spans are
    ``setup_roots``.  A layer the workload never calls reads 0.
    """
    def calls(name):
        return timed.get(name, {}).get("calls", 0)

    per_op = 1.0 / max(ops, 1)
    http, served = timed.get("http.request"), timed.get("serve.request")
    httpd = 0.0
    if http and http["calls"]:
        httpd = 1e6 * (http["total_s"] - (served or {}).get(
            "total_s", 0.0)) / http["calls"]
    shards = timed.get("shard.candidates")
    binning = setup.get("core.binning")
    return {
        "sql.parse_us": _per_call(timed.get("parse")),
        "sql.parse_calls_per_op": calls("parse") * per_op,
        "serve.request_us": _per_call(served),
        "serve.cache_hit_ratio": _share(served),
        "serve.httpd_us": httpd,
        "core.key_groups_us": _per_call(timed.get("core.key_groups")),
        "core.base_factor_us": _per_call(timed.get("core.base_factor")),
        "core.base_factor_calls_per_op": calls("core.base_factor") * per_op,
        "estimators.row_count_us": _per_call(
            timed.get("estimators.row_count")),
        "estimators.key_distribution_us": _per_call(
            timed.get("estimators.key_distribution")),
        "estimators.calls_per_op": (calls("estimators.row_count") + calls(
            "estimators.key_distribution")) * per_op,
        "core.fold_us": _per_call(timed.get("core.fold")),
        "plan.prepare_us": _per_call(timed.get("plan.prepare")),
        "optimizer.dp_us": _per_call(timed.get("optimizer.dp")),
        "core.update_us": _per_call(timed.get("model.update")),
        "serve.update_us": _per_call(timed.get("serve.update")),
        "core.fit_s": (sum(setup_roots) / len(setup_roots)
                       if setup_roots else 0.0),
        "core.fit_binning_s": (binning["total_s"] / len(setup_roots)
                               if binning and setup_roots else 0.0),
        "shard.shards_per_probe": (sum(shards["tags"]) / len(shards["tags"])
                                   if shards and shards["tags"] else 0.0),
        "cluster.probe_us": _per_call(timed.get("cluster.probe"), "total_s"),
        "cluster.probes_per_op": calls("cluster.probe") * per_op,
        "cluster.memo_hit_ratio": _share(timed.get("cluster.memo")),
    }
