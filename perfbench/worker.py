"""One fresh interpreter of the benchmark; run.py starts it once per role.

    python3 perfbench/worker.py probe  CONFIG
    python3 perfbench/worker.py timed  WORKLOAD SEED SECONDS CONFIG
    python3 perfbench/worker.py traced WORKLOAD SEED SECONDS CONFIG

`probe` loads the package and the config, notes when it is ready to start the
first trial, runs that trial at 1 thread and reports its peak memory. `timed`
and `traced` run the workload in batches for SECONDS and check every row.
Every role prints one JSON object as its last line of standard output.
"""

import json
import os
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rigid_refine import cli, refiner, synth  # noqa: E402


def probe(config_path):
    config = cli.load_config(config_path)
    ready = time.monotonic()
    os.environ["RIGID_REFINE_THREADS"] = "1"
    cli.run_experiment(replace(config, trials=1))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ready": ready, "rss_mb": rss_kib / 1024}


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run_batch(config, threads):
    """Run one batch at a thread count; returns (records, csv text, seconds),
    with None for records and text when the run raised."""
    os.environ["RIGID_REFINE_THREADS"] = str(threads)
    start = time.perf_counter()
    try:
        records = cli.run_experiment(config)
        text = cli.records_to_csv(records)
    except Exception:  # a run that raises fails all its trials; keep measuring
        traceback.print_exc()
        return None, None, time.perf_counter() - start
    return records, text, time.perf_counter() - start


class Checks:
    """Counts attempted and failed trials and keeps the first few reasons."""

    MAX_REASONS = 20

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def note(self, reason):
        if len(self.reasons) < self.MAX_REASONS:
            self.reasons.append(reason)

    def batch(self, config, runs):
        """Check labelled runs of one config: each must give the first run's CSV
        bytes, and the first run's rows must pass the workload's row checks.
        Returns the first run's rows (empty when it raised)."""
        trials = config.trials
        seed = config.problem.seed
        self.attempted += trials * len(runs)
        (label0, (records, text, _)), others = runs[0], runs[1:]
        if records is None:
            self.failed += trials * len(runs)
            self.note(f"{label0}: batch at seed {seed} raised")
            return []
        rows = workloads.record_rows(records, cli.COLUMNS)
        if len(rows) != trials:
            self.failed += trials
            self.note(f"batch at seed {seed}: {len(rows)} rows for {trials} trials")
        for i, row in enumerate(rows):
            errors = self.workload.row_errors(row, seed + i)
            if errors:
                self.failed += 1
                self.note(f"seed {row['seed']}: {'; '.join(errors)}")
        lines = text.splitlines()[1 : trials + 1]
        for label, (_, other, _) in others:
            if other is None:
                self.failed += trials
                self.note(f"{label}: batch at seed {seed} raised")
            elif other != text:
                got = other.splitlines()[1 : trials + 1]
                self.failed += max(1, sum(a != b for a, b in zip(lines, got)) + abs(len(lines) - len(got)))
                self.note(f"{label}: batch at seed {seed}: CSV bytes differ from {label0}")
        return rows

    def pinned(self, reference, rows):
        """Compare the default-seed rows with the pinned reference rows."""
        errors = workloads.compare_rows(reference, rows)
        for seed, message in errors:
            self.note(f"pinned seed {seed}: {message}")
        bad_seeds = {seed for seed, _ in errors}
        self.failed += len(reference) if None in bad_seeds else len(bad_seeds)


def batch_config(base, seed):
    return replace(base, problem=replace(base.problem, seed=seed))


def thread_counts():
    """1, then the machine's thread count when that is more."""
    return (1, nproc()) if nproc() > 1 else (1,)


def warm_up(workload, base, checks):
    """Run the pinned trials at every thread count before any timing: this
    fills caches, starts the pool, and checks the pinned rows."""
    reference = workloads.read_rows(workload.reference_path)
    config = replace(batch_config(base, workload.batch_seed(workloads.DEFAULT_SEED, 0)), trials=len(reference))
    runs = [(f"{t} threads", run_batch(config, t)) for t in thread_counts()]
    checks.pinned(reference, checks.batch(config, runs))


def timed(workload, seed, seconds, config_path):
    """Run the same batches at 1 thread and at all threads, in turn.

    The two thread counts take turns going first, so drift in the machine's
    speed reaches both alike.
    """
    base = cli.load_config(config_path)
    checks = Checks(workload)
    warm_up(workload, base, checks)
    counts = thread_counts()
    batches = {t: [] for t in counts}
    rows = []
    deadline = time.monotonic() + seconds
    batch = 0
    while batch == 0 or time.monotonic() < deadline:
        config = batch_config(base, workload.batch_seed(seed, batch))
        runs = {t: run_batch(config, t) for t in (counts if batch % 2 == 0 else counts[::-1])}
        for t, (_, _, taken) in runs.items():
            batches[t].append((config.trials, taken))
        rows += checks.batch(config, [(f"{t} threads", runs[t]) for t in counts])
        batch += 1
    workloads.write_rows(ROOT / ".perfbench" / "rows" / f"{workload.name}-seed{seed}.csv", rows)
    return {
        "threads": counts[-1],
        "batches_1": batches[1],
        "batches_n": batches[counts[-1]],
        "attempted": checks.attempted,
        "failed": checks.failed,
        "reasons": checks.reasons,
    }


def traced(workload, seed, seconds, config_path):
    """Run each batch untraced and traced at 1 thread, then traced at all
    threads, and derive the per-layer metrics from the spans."""
    base = cli.load_config(config_path)
    checks = Checks(workload)
    warm_up(workload, base, checks)
    tracer = spans.Tracer({"cli": cli, "refiner": refiner, "synth": synth})
    threads = thread_counts()[-1]
    trials = 0
    untraced_s = traced_s = 0.0

    def traced_batch(config, phase, t):
        tracer.phase = phase
        tracer.install()
        try:
            return run_batch(config, t)
        finally:
            tracer.uninstall()

    deadline = time.monotonic() + seconds
    batch = 0
    while batch == 0 or time.monotonic() < deadline:
        config = batch_config(base, workload.batch_seed(seed, batch))
        if batch % 2 == 0:
            plain = run_batch(config, 1)
            one = traced_batch(config, spans.ONE_THREAD, 1)
        else:
            one = traced_batch(config, spans.ONE_THREAD, 1)
            plain = run_batch(config, 1)
        many = traced_batch(config, spans.ALL_THREADS, threads)
        untraced_s += plain[2]
        traced_s += one[2]
        trials += config.trials
        checks.batch(config, [("untraced", plain), ("traced 1 thread", one), (f"traced {threads} threads", many)])
        batch += 1
    tracer.write(ROOT / ".perfbench" / "spans" / f"{workload.name}.csv")
    return {
        "threads": threads,
        "metrics": spans.per_layer(tracer.spans, trials, untraced_s, traced_s, tracer.absent),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "reasons": checks.reasons + [f"absent wrapper: {name}" for name in tracer.absent],
    }


def main(argv):
    role = argv[0]
    if role == "probe":
        result = probe(argv[1])
    else:
        workload = workloads.WORKLOADS[argv[1]]
        seed, seconds, config_path = int(argv[2]), float(argv[3]), argv[4]
        result = {"timed": timed, "traced": traced}[role](workload, seed, seconds, config_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
