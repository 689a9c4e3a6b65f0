"""FactorJoin benchmark: one workload, one seed, one JSON result line.

    python3 fjbench/run.py --workload plan-cold --seed 1 --seconds 15 --trace 0

Workloads: plan-cold, http-hot, serve-writes, cluster-tcp (see README.md).
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics, from spans
recorded around each layer's public functions in every other round of
the timed phase (the rounds between run the program's own functions,
for the overhead ratio).  The spans are written to ``.fjbench_out/``
when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import bootstrap
import layers
from inputs import DEFAULT_SEED, Inputs
from spans import Recorder, summarize
from workloads import READ, WORKLOADS, accuracy_inputs

#: (metric, unit) in the order BENCHMARK.json lists them
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("qerror_p50", "ratio"),
    ("qerror_p90", "ratio"),
    ("perror_mean", "ratio"),
    ("model_bytes", "B"),
    ("peak_rss_mb", "MiB"),
]


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Phase:
    """The timed part of a run: whole rounds until ``seconds`` of the
    program's work have passed."""

    def __init__(self):
        self.reads: list[float] = []
        self.writes: list[float] = []
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0

    def round(self, workload, served, items, recorder=None) -> None:
        """Runs and checks one round.  Spans, when ``recorder`` is given,
        cover only the round's operations, not checking them."""
        if recorder is not None:
            recorder.enabled = True
        start = time.perf_counter()
        ops = workload.run_round(served, items)
        self.seconds += time.perf_counter() - start
        if recorder is not None:
            recorder.enabled = False
        self.failed += workload.check_round(served, items, ops)
        self.attempted += len(ops)
        for op in ops:
            (self.reads if op.kind == READ else self.writes).append(
                op.seconds)

    def run(self, workload, served, rounds, seconds: float) -> "Phase":
        while self.seconds < seconds:
            self.round(workload, served, next(rounds))
        return self

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes)


def run(args, workdir: str) -> dict:
    inputs = Inputs.build(args.seed)
    recorder = Recorder()
    if args.trace:
        layers.install(recorder)  # set-ups are traced for the fit metrics
    workload = WORKLOADS[args.workload](inputs, recorder, workdir)
    accuracy_set = runner = None
    if not args.trace:
        accuracy_set, runner = accuracy_inputs(inputs)

    setups, served, scores = [], None, None
    recorder.enabled = bool(args.trace)
    try:
        for repeat in range(workload.setup_repeats):
            start = time.perf_counter()
            instance = workload.setup()
            setups.append(time.perf_counter() - start)
            if repeat == workload.setup_repeats - 1:
                served = instance
                break
            try:
                if accuracy_set is not None and scores is None:
                    recorder.enabled = False
                    scores = workload.accuracy(instance, accuracy_set, runner)
                    recorder.enabled = bool(args.trace)
            finally:
                workload.teardown(instance)
        setup_spans, recorder.spans = recorder.spans, []
        recorder.enabled = False
        recorder.unwrap_all()
        # the model as set up: serve-writes' model changes during the run
        model_bytes = workload.model_bytes(served)

        rounds = workload.rounds()
        if args.trace:
            # traced rounds (wrappers installed and recording) alternate
            # with untraced ones (the program's own functions), so the
            # overhead ratio compares like with like
            phase, base = Phase(), Phase()
            while phase.seconds + base.seconds < args.seconds:
                layers.install(recorder)
                try:
                    phase.round(workload, served, next(rounds), recorder)
                finally:
                    recorder.unwrap_all()
                base.round(workload, served, next(rounds))
            metrics = {
                "obs.request_overhead_us": 0.0,
                **layers.layer_metrics(
                    summarize(recorder.spans), summarize(setup_spans),
                    [s.end - s.start for s in setup_spans
                     if s.name == "core.fit" and s.parent is None],
                    phase.ops),
                **workload.layer_extras(served),
                "trace.overhead_ratio": (statistics.median(phase.reads)
                                         / statistics.median(base.reads)),
            }
            out = os.path.join(bootstrap.ROOT, ".fjbench_out")
            os.makedirs(out, exist_ok=True)
            recorder.dump(os.path.join(
                out, f"spans-{args.workload}-{args.seed}.jsonl"))
            units = layers.PER_LAYER
            attempted = base.attempted + phase.attempted
            failed = base.failed + phase.failed
            problems = []
        else:
            phase = Phase().run(workload, served, rounds, args.seconds)
            qerrors, perrors, problems = scores
            metrics = {
                "setup_s": statistics.median(setups),
                "op_p50_ms": 1e3 * statistics.median(phase.reads),
                "op_p90_ms": 1e3 * p90(phase.reads),
                "ops_per_s": phase.ops / phase.seconds,
                "qerror_p50": statistics.median(qerrors),
                "qerror_p90": p90(qerrors),
                "perror_mean": statistics.fmean(perrors),
                "model_bytes": model_bytes,
                "peak_rss_mb": workload.peak_rss_mib(served),
            }
            units = END_TO_END
            attempted, failed = phase.attempted, phase.failed
    finally:
        if served is not None:
            workload.teardown(served)
        recorder.unwrap_all()

    for problem in workload.problems + problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = os.path.join(bootstrap.ROOT, ".fjbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>13} {name:<32} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
