"""The repository benchmark: one command, three closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sensors-hot --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` times reps of the workload untraced and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced reps
and prints the per-layer metrics, with a layer table whose self times
plus ``core.monitor.residual`` add up to the traced µs per step.  Every
run checks every verdict against a reference run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every check
passed, 1 when one failed and 2 on bad usage or a missing program.

Results (metrics, layer table, counts, and the traced spans of the last
traced rep) are also written under ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "_results"

#: minimum untraced reps per run, so each step has several timings
MIN_REPS = 3
#: steps per block of the stream whose fastest wall time is kept
BLOCK = 100


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def fastest_latencies(reps) -> list:
    """Each timed step's fastest latency over the reps, sorted."""
    return sorted(map(min, zip(*(rep.latencies for rep in reps))))


def fastest_wall(reps) -> float:
    """The timed phase's wall, each block of steps at its fastest."""
    steps = reps[0].steps
    return sum(
        min(rep.marks[min(j + BLOCK, steps)] - rep.marks[j] for rep in reps)
        for j in range(0, steps, BLOCK)
    )


def mismatches(keys, reference) -> int:
    """Steps whose verdict differs from the reference, or is missing."""
    differ = sum(1 for a, b in zip(keys, reference) if a != b)
    return differ + abs(len(keys) - len(reference))


class Run:
    """One invocation: repeat reps, check them, aggregate metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.problems = []
        self.failed = 0
        self.attempted = 0

    def check(self, ok: bool, what: str) -> None:
        if not ok and what not in self.problems:
            self.problems.append(what)

    def execute(self):
        from scenarios import fresh_directory, violation_count
        from tracing import SpanRecorder

        inputs = self.workload.prepare(self.seed)
        for name, ok in inputs.checks.items():
            self.check(ok, name)
        self.check(violation_count(inputs.reference) > 0,
                   "reference run reports violations")
        workdir = WORK / f"{self.workload.name}-{os.getpid()}"
        self.inputs = inputs
        self.untraced, self.traced = [], []
        started = perf_counter()
        try:
            index = 0
            while True:
                elapsed = perf_counter() - started
                enough = len(self.untraced) >= MIN_REPS if not self.trace \
                    else self.untraced and self.traced
                if enough and elapsed >= self.seconds:
                    break
                with_trace = self.trace and index % 2 == 1
                rep = self.workload.run(
                    inputs, fresh_directory(workdir / f"rep-{index}"),
                    SpanRecorder() if with_trace else None,
                )
                shutil.rmtree(workdir / f"rep-{index}")
                self.absorb(rep)
                (self.traced if with_trace else self.untraced).append(rep)
                index += 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.check(self.failed == 0, "every step verdicted correctly")
        return self

    def absorb(self, rep) -> None:
        """Check one rep, keep its figures and drop its bulk."""
        from scenarios import violation_count

        inputs = self.inputs
        first = (self.untraced + self.traced + [rep])[0]
        self.attempted += len(rep.keys)
        self.failed += rep.lost + mismatches(rep.keys, inputs.reference)
        self.check(violation_count(rep.keys) > 0,
                   "the run reports violations")
        self.check(rep.counts == first.counts
                   and rep.aux_max == first.aux_max,
                   "counts repeat exactly from rep to rep")
        for name in ("ingest.identity", "shard.accounting",
                     "core.persist.recoveries_agree"):
            self.check(rep.counts.get(name, True), name)
        self.check(rep.counts.get("ingest.late", 0) == 0, "no late arrivals")
        self.check(
            rep.counts.get("ingest.duplicates", inputs.replays)
            == inputs.replays,
            "every replayed arrival is counted as a duplicate",
        )
        rep.keys = None
        if rep.spans is not None:
            self.absorb_trace(rep)

    def absorb_trace(self, rep) -> None:
        """Fold a traced rep's spans into its layer table and totals.

        Only the latest traced rep keeps its spans (to be written out).
        """
        from tracing import layer_table, span_totals

        rep.table = layer_table(rep.spans, rep.steps)
        rep.totals = span_totals(rep.spans)
        root = next(s for s in rep.spans if s[1] == "run")
        rep.traced_us = (root[3] - root[2]) * 1e6 / rep.steps
        self.check(
            abs(sum(rep.table.values()) - rep.traced_us)
            <= 1e-6 * rep.traced_us,
            "layer self times plus residual sum to the traced step",
        )
        if self.traced:
            self.traced[-1].spans = None

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def end_to_end(self) -> dict:
        """The untraced reps' figures, each step at its fastest.

        Every rep replays the same stream, so a step's own costs (its
        checks, checkpoints, deep samples, collections) recur in every
        rep, while the contention of a shared host comes and goes: the
        host this was written on runs the same loop up to 1.5x slower
        for seconds at a time.  Latency percentiles are therefore taken
        over each step's fastest time in the run, throughput over each
        block of ``BLOCK`` steps' fastest wall, and recovery is the
        fastest of the run's recoveries.  Set-up is the median of the
        run's set-ups.
        """
        reps = self.untraced
        fastest = fastest_latencies(reps)
        return {
            "step_p50_us": (percentile(fastest, 0.50) * 1e6, "us"),
            "step_p99_us": (percentile(fastest, 0.99) * 1e6, "us"),
            "throughput_sps": (reps[0].steps / fastest_wall(reps), "1/s"),
            "setup_s": (statistics.median(
                x for rep in reps for x in rep.setups), "s"),
            "recover_s": (
                min(x for rep in reps for x in rep.recoveries), "s"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
            "aux_tuples_max": (max(rep.aux_max for rep in reps), "count"),
        }

    def per_layer(self) -> dict:
        from tracing import LAYERS, RESIDUAL

        traced = self.traced
        steps = sum(rep.steps for rep in traced)
        table = {name: 0.0 for name in LAYERS + (RESIDUAL,)}
        totals = {}
        for rep in traced:
            for name, value in rep.table.items():
                table[name] += value * rep.steps / steps
            for name, (count, seconds) in rep.totals.items():
                old = totals.get(name, (0, 0.0))
                totals[name] = (old[0] + count, old[1] + seconds)
        traced_us = sum(rep.traced_us * rep.steps for rep in traced) / steps
        self.layers = table
        self.traced_step_us = traced_us

        first = traced[0]
        obs = first.obs
        counts = first.counts
        checkpoints, checkpoint_s = totals.get("core.persist.checkpoint",
                                               (0, 0.0))
        arrivals = sum(rep.layer.get("ingest.arrivals", 0) for rep in traced)
        releases = [x for rep in traced for x in rep.releases]
        untraced_p50 = percentile(fastest_latencies(self.untraced), 0.50)
        traced_p50 = percentile(fastest_latencies(traced), 0.50)
        checker_steps = obs.checker_steps
        constraints = self.inputs.constraints
        evaluations = counts["core.checker.evaluations"]
        return {
            "db.apply_us": (table["db.apply"], "us"),
            "db.txn_rows": (obs.rows / first.steps, "rows/step"),
            "core.auxiliary.advance_us": (
                table["core.auxiliary.advance"], "us"),
            "core.auxiliary.tuples": (obs.aux_tuples / first.steps, "count"),
            "core.foeval.evaluate_us": (table["core.foeval.evaluate"], "us"),
            "core.checker.evaluations_per_step": (
                evaluations / first.steps, "count"),
            "core.checker.reuse_ratio": (
                1 - evaluations / (checker_steps * constraints), "ratio"),
            "core.monitor.residual_us": (table[RESIDUAL], "us"),
            "core.persist.record_us": (table["core.persist.record"], "us"),
            "core.persist.checkpoint_us": (
                checkpoint_s * 1e6 / checkpoints if checkpoints else 0.0,
                "us"),
            "core.persist.checkpoints": (
                counts["core.persist.checkpoints"], "count"),
            "core.persist.replayed_records": (
                counts["core.persist.replayed_records"], "count"),
            "store.bytes_per_step": (
                first.layer["store.bytes_per_step"], "bytes"),
            "ingest.push_us": (
                totals.get("ingest.push", (0, 0.0))[1] * 1e6 / arrivals
                if arrivals else 0.0, "us"),
            "ingest.release_wait_us": (
                statistics.fmean(releases) * 1e6 if releases else 0.0, "us"),
            "ingest.buffer_depth_max": (
                first.layer.get("ingest.buffer_depth_max", 0), "count"),
            "ingest.duplicates": (counts.get("ingest.duplicates", 0), "count"),
            "ingest.late": (counts.get("ingest.late", 0), "count"),
            "obs.telemetry_us": (table["obs.telemetry"], "us"),
            "obs.statewatch_us": (table["obs.statewatch"], "us"),
            "shard.submit_us": (table["shard.submit"], "us"),
            "shard.checker_steps": (counts["shard.checker_steps"], "count"),
            "shard.useful_step_ratio": (
                obs.useful_steps / checker_steps
                if counts["shard.checker_steps"] else 0.0, "ratio"),
            "shard.mailbox_depth_max": (
                first.layer.get("shard.mailbox_depth_max", 0), "count"),
            "trace.step_us": (traced_us, "us"),
            "trace.overhead_ratio": (traced_p50 / untraced_p50, "ratio"),
        }

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def report(self) -> dict:
        metrics = self.per_layer() if self.trace else self.end_to_end()
        wl = self.workload
        reps = self.untraced
        print(f"workload {wl.name}: {wl.why}")
        print(f"seed {self.seed}; {len(reps)} untraced and "
              f"{len(self.traced)} traced rep(s) of {reps[0].steps} "
              f"timed steps; closed loop, 1 caller, no extra threads")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        ratio = self.failed / self.attempted if self.attempted else 1.0
        print(f"  failed_ratio = {ratio:.6g} ratio "
              f"({self.failed} of {self.attempted} steps)")
        if self.trace:
            print(f"layers (self µs/step; sum = traced step "
                  f"{self.traced_step_us:.2f} µs):")
            for name, value in self.layers.items():
                print(f"  {name:28s} {value:10.2f}")
        for problem in self.problems:
            print(f"CHECK FAILED: {problem}")
        result = {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
        self.write(result)
        return result

    def write(self, result: dict) -> None:
        RESULTS.mkdir(exist_ok=True)
        stem = RESULTS / (f"{self.workload.name}-seed{self.seed}"
                          f"-trace{int(self.trace)}")
        document = dict(result, workload=self.workload.name,
                        seed=self.seed, counts=self.untraced[0].counts)
        if self.trace:
            document["layers_us_per_step"] = self.layers
            document["traced_step_us"] = self.traced_step_us
            last = self.traced[-1]
            with open(f"{stem}-spans.jsonl", "w") as out:
                for span_id, name, start, end, parent, step in last.spans:
                    out.write(json.dumps({
                        "id": span_id, "name": name, "start": start,
                        "end": end, "parent": parent, "step": step}) + "\n")
        Path(f"{stem}.json").write_text(json.dumps(document, indent=2))


def bootstrap() -> bool:
    """Put the program's source on the import path; False if missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in "
                             "its own process, one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap():
        print(f"error: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    from scenarios import WORKLOADS

    if args.workload == "all":
        return max(
            subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
            for name in WORKLOADS
        )
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    result = run.execute().report()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
