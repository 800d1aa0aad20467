"""Repository benchmark: drives the reconciler from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pim-b1-observed --seed 1 --seconds 20 --trace 0

Workloads listed in ``BENCHMARK.json`` (it says why each exists), on
PIM dataset B at scales 1 and 2:

* ``pim-b1-observed`` -- ``repro reconcile --run-dir`` at scale 1
  (manifest, provenance, convergence sampling): ingest, scoring,
  blocking, engine and graph plus the ``obs`` layer. The run also
  reconciles its first dataset without ``--run-dir`` (untimed) and
  checks that observing leaves the partition unchanged.
* ``pim-b2-updates`` -- at scale 2, the last 1000 Person references are
  held out, the rest is reconciled with
  ``IncrementalReconciler.initial()`` (set-up), and the held-out ones
  are folded in through ``add()`` in batches of 5.

Two more run by hand but are not in ``BENCHMARK.json`` (see
``PREDICTIONS.md``): ``pim-b4`` (plain ``repro reconcile`` at scale 4,
scoring-heavy), whose layers all run in ``pim-b1-observed`` too, and
``cora`` (the Cora-like citation corpus, graph-heavy), whose cost
varies too much from one generated corpus to the next.

Every end-to-end metric of every listed workload, by name and unit
(on stderr, with ``error_rate``; the result lines go to stdout)::

    for w in pim-b1-observed pim-b2-updates; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

Every operation runs in a freshly spawned interpreter (never forked),
one at a time: one closed-loop caller. Operations repeat, each on a
new dataset drawn from ``(seed, index)``, until ``--seconds`` are used.
Outputs are checked after every operation, outside the timed span.

With ``--trace 0`` the last stdout line carries the end-to-end
metrics. With ``--trace 1`` the run alternates untraced and traced
operations on the run's first dataset and reports the per-layer
metrics of the traced ones (see ``spans.py``). The line before it is a
JSON object with the run's context: seed, dataset sizes, candidate
pairs, nproc, Python version and load average.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from inputs import PairCounts, check_partition, digest, sub_seed, write_inputs  # noqa: E402
from spans import LAYER_OF, LAYERS, ROOT as ROOT_SPAN, now  # noqa: E402

WORKLOADS = {
    "pim-b1-observed": {"dataset": "pim", "scale": 1.0, "mode": "observed"},
    "pim-b2-updates": {
        "dataset": "pim",
        "scale": 2.0,
        "mode": "updates",
        "held_out": 1000,
        "batch_size": 5,
    },
    # By hand only, not in BENCHMARK.json (see PREDICTIONS.md).
    "pim-b4": {"dataset": "pim", "scale": 4.0, "mode": "reconcile"},
    "cora": {"dataset": "cora", "mode": "reconcile"},
}

#: a run must end within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0


class Run:
    """State of one benchmark invocation: its work directory, the
    operations attempted and the problems found."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.started = now()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.datasets: list[dict] = []
        #: timing samples behind the reported metrics.
        self.samples = 0
        self._ops = 0

    # -- operations ------------------------------------------------------
    def spawn(self, spec: dict) -> dict | None:
        """Run one operation in a fresh interpreter; its result or None."""
        self._ops += 1
        tag = f"op{self._ops}"
        spec = dict(spec, result=str(self.work / f"{tag}.result.json"))
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # Fixed string hashing: set iteration order, and with it every
        # work counter, repeats exactly from run to run.
        env["PYTHONHASHSEED"] = "0"
        timeout = max(1.0, RUN_LIMIT_S - (now() - self.started))
        with open(self.work / f"{tag}.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path), repr(now())],
                cwd=ROOT,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # Never leave a child behind, also when interrupted.
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code is None:
            self.problems.append(f"{tag} timed out after {timeout:.0f}s")
            return None
        if code != 0 or not Path(spec["result"]).exists():
            tail = (self.work / f"{tag}.log").read_text()[-2000:]
            self.problems.append(f"{tag} exited {code}: {tail.strip()}")
            return None
        return json.loads(Path(spec["result"]).read_text())

    def time_left(self, seconds: float, round_s: float) -> bool:
        """Whether another round, as long as the last (*round_s*), fits:
        rounds start while they would end within half a round of the
        budget."""
        elapsed = now() - self.started
        return elapsed + round_s / 2 < seconds and elapsed + 2 * round_s < RUN_LIMIT_S

    def inputs(self, index: int):
        seed = sub_seed(self.seed, index)
        inputs = write_inputs(self.workload, seed, self.work / f"in{index}")
        self.datasets.append({"seed": seed, "refs": inputs.refs, "held_out": inputs.held_out})
        return inputs

    def reconcile(self, inputs, *, observed: bool, trace: bool, tag: str) -> dict | None:
        """One ``repro reconcile`` call; checks its partition."""
        output = self.work / f"{tag}.partition.json"
        argv = ["reconcile", str(inputs.directory), "--output", str(output)]
        run_dir = self.work / f"{tag}.run"
        if observed:
            argv += ["--run-dir", str(run_dir)]
        spec = {
            "mode": "reconcile",
            "argv": argv,
            "trace": trace,
            "program_trace": str(self.work / f"{tag}.trace.json"),
        }
        self.attempted += 1
        result = self.spawn(spec)
        ok = result is not None and self._check_run(result, tag)
        if ok:
            partitions = json.loads(output.read_text())
            problems, counts = check_partition(partitions, inputs)
            self.problems += [f"{tag}: {problem}" for problem in problems]
            ok = not problems
            result["pair_counts"] = counts
            result["digest"] = digest(partitions)
            provenance = run_dir / "provenance.jsonl"
            result["provenance_bytes"] = provenance.stat().st_size if provenance.exists() else 0
            self._note(result, tag)
        if not ok:
            self.failed += 1
            return None
        return result

    def updates(self, inputs, *, trace: bool, tag: str) -> dict | None:
        """Fold the held-out references in; every batch is an operation."""
        output = self.work / f"{tag}.partition.json"
        spec = {
            "mode": "updates",
            "base_dir": str(inputs.directory),
            "updates_path": str(inputs.updates_path),
            "batch_size": self.workload["batch_size"],
            "partition_out": str(output),
            "trace": trace,
        }
        batches = -(-inputs.held_out // self.workload["batch_size"])
        self.attempted += batches
        result = self.spawn(spec)
        if result is None:
            self.failed += batches
            return None
        bad = [
            i for i, reason in enumerate(result["stop_reasons"]) if reason != "converged"
        ]
        self.problems += [f"{tag} batch {i + 1}: stop_reason {result['stop_reasons'][i]}" for i in bad]
        self.problems += [f"{tag}: {problem}" for problem in result["problems"]]
        problems, counts = check_partition(json.loads(output.read_text()), inputs)
        self.problems += [f"{tag}: {problem}" for problem in problems]
        failed = len(bad) + len(result["problems"]) + (batches if problems else 0)
        self.failed += min(batches, failed)
        if failed:
            return None
        result["pair_counts"] = counts
        self._note(result, tag)
        return result

    def _check_run(self, result: dict, tag: str) -> bool:
        if result["exit_code"] != 0:
            self.problems.append(f"{tag}: CLI exited {result['exit_code']}")
            return False
        if result["stop_reasons"] != ["converged"]:
            self.problems.append(f"{tag}: stop_reason {result['stop_reasons']}")
            return False
        return True

    def _note(self, result: dict, tag: str) -> None:
        """Record the dataset's candidate pairs and the operation's
        seconds in the run context, so a result can be re-checked."""
        entry = self.datasets[-1]
        entry.setdefault("candidate_pairs", result["counters"].get("candidate_pairs"))
        entry.setdefault("ops", {})[tag] = round(_call_seconds(result), 6)

    def check_same(self, plain: dict | None, observed: dict | None, tag: str) -> None:
        """Observing a run must not change its partition."""
        if plain is None or observed is None:
            return
        if plain["digest"] != observed["digest"]:
            self.problems.append(f"{tag}: --run-dir changed the partition digest")
            self.failed += 1


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(run: Run, seconds: float) -> dict:
    mode = run.workload["mode"]
    timed: list[dict] = []
    setups: list[float] = []
    index = 0
    while True:
        round_started = now()
        inputs = run.inputs(index)
        tag = f"d{index}"
        if mode == "updates":
            result = run.updates(inputs, trace=False, tag=tag)
        else:
            plain = None
            if mode == "observed" and index == 0:
                # The unobserved reference run is not part of a round.
                plain_started = now()
                plain = run.reconcile(inputs, observed=False, trace=False, tag=tag + "plain")
                round_started += now() - plain_started
                if plain is not None:
                    setups.append(plain["setup_s"])
            result = run.reconcile(inputs, observed=mode == "observed", trace=False, tag=tag)
            run.check_same(plain, result, tag)
        if result is not None:
            result["refs"] = inputs.refs
            result["held_out"] = inputs.held_out
            timed.append(result)
            setups.append(result["setup_s"])
        shutil.rmtree(inputs.directory, ignore_errors=True)
        index += 1
        if not run.time_left(seconds, now() - round_started):
            break
    if not timed:
        return {}
    counts = PairCounts()
    for result in timed:
        counts.add(result["pair_counts"])
    if mode == "updates":
        samples = [s for result in timed for s in result["latencies_s"]]
        work = sum(result["held_out"] for result in timed)
    else:
        samples = [result["wall_s"] for result in timed]
        work = sum(result["refs"] for result in timed)
    run.samples = len(samples)
    # refs_per_s pools all timed calls: the cost of a generated dataset
    # varies from one seed to the next several times as much as repeats
    # of one input do (PREDICTIONS.md), and over such spread a mean is
    # the steadier estimate.
    return {
        "refs_per_s": (work / sum(samples), "refs/s"),
        "op_p50_ms": (statistics.median(samples) * 1000, "ms"),
        "op_p90_ms": (_p90(samples) * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
        "pair_f1": (counts.f1(), "ratio"),
    }


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------
def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(result: dict, batches: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    spans = result["spans"]
    counters = result["counters"]
    program = result["program_spans"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    candidates = counters.get("candidate_pairs", 0)
    merges = counters.get("merges", 0)
    recomputations = counters.get("recomputations", 0)
    incremental = batches > 0
    out = {
        "datasets.io.load_s": total("datasets.io.load_dataset"),
        "perf.scoring.pair_evidence_s": total("perf.scoring.pair_evidence"),
        "perf.scoring.pair_evidence_calls": calls("perf.scoring.pair_evidence"),
        "perf.scoring.pair_memo_hit_rate": _rate(
            counters.get("pair_memo_hits", 0), counters.get("pair_memo_misses", 0)
        ),
        "perf.scoring.feature_cache_hit_rate": _rate(
            counters.get("feature_cache_hits", 0), counters.get("feature_cache_misses", 0)
        ),
        "perf.scoring.prefilter_skips": counters.get("prefilter_skips", 0),
        "core.blocking.candidate_pairs": candidates,
        "core.blocking.node_yield": counters.get("pair_nodes", 0) / candidates if candidates else 0.0,
        "core.blocking.add_and_pairs_s": total("core.blocking.add_and_pairs"),
        "core.engine.build_s": total("core.engine.build"),
        "core.engine.build_self_s": own("core.engine.build"),
        "core.engine.wire_association_s": program.get("wire_association", 0.0),
        "core.engine.wire_weak_s": program.get("wire_weak", 0.0),
        "core.engine.iterate_s": total("core.engine.iterate"),
        "core.engine.iterate_self_s": own("core.engine.iterate"),
        "core.engine.recomputations": recomputations,
        "core.engine.recomputations_per_merge": recomputations / merges if merges else 0.0,
        "core.graph.drop_self_references_s": total("core.graph.drop_self_references"),
        "core.graph.drop_self_references_calls": calls("core.graph.drop_self_references"),
        "core.graph.merge_elements_s": total("core.graph.merge_elements"),
        "core.graph.merge_elements_calls": calls("core.graph.merge_elements"),
        "core.graph.add_pair_node_s": total("core.graph.add_pair_node"),
        "core.graph.add_edge_s": total("core.graph.add_edge"),
        "core.graph.add_edge_calls": calls("core.graph.add_edge"),
        "core.graph.fusions": counters.get("fusions", 0),
        "core.graph.nodes": counters.get("graph_nodes", 0),
        "core.partition.union_s": total("core.partition.union"),
        "core.partition.unions": calls("core.partition.union"),
        "core.queue.pops": result["span_counts"].get("core.queue.pops", 0),
        "core.queue.front_pushes": counters.get("front_pushes", 0),
        "core.queue.back_pushes": counters.get("back_pushes", 0),
        "core.incremental.add_s": total("core.incremental.add"),
        "core.incremental.recomputations_per_batch": recomputations / batches if incremental else 0.0,
        "core.incremental.candidate_pairs_per_batch": candidates / batches if incremental else 0.0,
        "obs.convergence_s": total("obs.convergence"),
        "obs.convergence_samples": counters.get("convergence_samples", 0),
        "obs.provenance_record_s": total("obs.provenance_record"),
        "obs.provenance_records": calls("obs.provenance_record"),
        "obs.provenance_bytes": result.get("provenance_bytes", 0),
        "obs.manifest_s": total("obs.manifest"),
        "trace.unattributed_s": own(ROOT_SPAN),
        "trace.wall_s": total(ROOT_SPAN),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in spans.items() if LAYER_OF.get(name) == layer
        )
    return out


def _call_seconds(result: dict) -> float:
    if "latencies_s" in result:
        return sum(result["latencies_s"])
    return result["wall_s"]


def trace(run: Run, seconds: float) -> dict:
    """Alternate untraced and traced operations on one dataset."""
    mode = run.workload["mode"]
    inputs = run.inputs(0)
    batches = 0
    if mode == "updates":
        batches = -(-inputs.held_out // run.workload["batch_size"])
    plain, untraced, traced = [], [], []
    rounds = 0
    while True:
        round_started = now()
        tag = f"r{rounds}"
        if mode == "updates":
            untraced.append(run.updates(inputs, trace=False, tag=tag + "u"))
            traced.append(run.updates(inputs, trace=True, tag=tag + "t"))
        else:
            observed = mode == "observed"
            if observed:
                plain.append(run.reconcile(inputs, observed=False, trace=False, tag=tag + "p"))
            untraced.append(run.reconcile(inputs, observed=observed, trace=False, tag=tag + "u"))
            traced.append(run.reconcile(inputs, observed=observed, trace=True, tag=tag + "t"))
            if observed:
                run.check_same(plain[-1], untraced[-1], tag)
        rounds += 1
        if not run.time_left(seconds, now() - round_started):
            break
    plain = [r for r in plain if r is not None]
    untraced = [r for r in untraced if r is not None]
    traced = [r for r in traced if r is not None]
    if not traced or not untraced:
        return {}
    # All per-layer figures come from one traced operation, the one with
    # the median wall time, so its layer self times and the unattributed
    # rest add up to its wall time exactly.
    middle = sorted(traced, key=_call_seconds)[(len(traced) - 1) // 2]
    metrics = layer_metrics(middle, batches)
    untraced_s = statistics.median(_call_seconds(r) for r in untraced)
    metrics["trace.overhead_ratio"] = _call_seconds(middle) / untraced_s
    metrics["obs.overhead_ratio"] = (
        untraced_s / statistics.median(r["wall_s"] for r in plain) if plain else 0.0
    )
    run.samples = len(traced)
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_rate", "_ratio", "_yield", "_per_merge", "_per_batch")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# ----------------------------------------------------------------------
def context(run: Run) -> dict:
    return {
        "workload": run.name,
        "seed": run.seed,
        "datasets": run.datasets,
        "samples": run.samples,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its child and removes its work files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, work)
    try:
        metrics = (trace if args.trace else measure)(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not metrics:
        print("no operation succeeded", file=sys.stderr)
        return 1
    ctx = context(run)
    error_rate = run.failed / run.attempted
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:44s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"{args.workload:16s} {'error_rate':44s} {error_rate:14.6g} ratio", file=sys.stderr)
    print(json.dumps({"context": ctx}))
    print(
        json.dumps(
            {
                "correct": not run.problems and run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
