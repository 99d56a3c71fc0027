"""Benchmark of the `rigid-refine run` experiment harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --compare-rows A.csv B.csv

A measuring run prints its provenance, then, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones from a separate traced
process. The command exits 1 when any output check fails and 2 when the
package source is missing. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# Fresh interpreters timed per run for setup_s and peak_rss_mb; both are
# reported as medians.
PROBES = 5

# Every run ends within this many seconds, whatever its children do.
DEADLINE_S = 170


class ChildFailed(Exception):
    """A worker process crashed, timed out or printed no result."""


def child(role, *args, deadline):
    """Run worker.py in a fresh interpreter; returns its JSON result, or
    raises ChildFailed. Its standard error is passed through."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"{role}: no time left")
    env = {k: v for k, v in os.environ.items() if k != "RIGID_REFINE_THREADS"}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), role, *map(str, args)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{role}: timed out") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{role}: exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, probes=PROBES):
    """One benchmark run: (result dict, provenance dict)."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    config_path = OUT / f"{workload.name}-seed{seed}.cfg"
    config_path.write_text(workload.config_file_text(seed))
    role = "traced" if trace else "timed"
    run = child(role, workload.name, seed, seconds, config_path, deadline=deadline)
    correct = run["failed"] == 0
    if trace:
        metrics = run["metrics"]
    else:
        setup, rss = [], []
        for _ in range(probes):
            start = time.monotonic()
            probe = child("probe", config_path, deadline=deadline)
            setup.append(probe["ready"] - start)
            rss.append(probe["rss_mb"])
        metrics = {
            "trials_per_s": {"value": throughput(run["batches_1"]), "unit": "trials/s"},
            "trials_per_s_nproc": {"value": throughput(run["batches_n"]), "unit": "trials/s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "trial_ok_frac": {
                "value": (run["attempted"] - run["failed"]) / run["attempted"],
                "unit": "frac",
            },
        }
    for reason in run["reasons"]:
        print(f"check: {reason}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    provenance = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "threads": {"RIGID_REFINE_THREADS": [1, run["threads"]], "nproc": run["threads"]},
        **machine(),
    }
    if not trace:
        provenance["batches"] = {"1": run["batches_1"], "n": run["batches_n"]}
    return result, provenance


def throughput(batches):
    """Trials per second over (trials, seconds) batches."""
    return sum(n for n, _ in batches) / sum(t for _, t in batches)


def machine():
    """Interpreter, library and CPU facts recorded with every result."""
    info = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"][f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return info


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        [w["name"] for w in spec["workloads"]],
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def smoke():
    """Every workload with one batch per role: checks outputs and that every
    declared metric is reported with its unit. Asserts no timing bounds."""
    names, end_to_end, per_layer = declared_metrics()
    ok = sorted(names) == sorted(workloads.WORKLOADS)
    if not ok:
        print(f"smoke: BENCHMARK.json names {names}, the benchmark defines {list(workloads.WORKLOADS)}")
    for name in names:
        workload = workloads.WORKLOADS[name]
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result, _ = measure(workload, workloads.DEFAULT_SEED, 0, trace, probes=1)
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            good = result["correct"] and reported == declared
            ok = ok and good
            print(f"smoke: {name} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"({result['attempted']} trials, {len(reported)} metrics)")
            if trace == 0:
                for metric, value in result["metrics"].items():
                    print(f"  {metric} = {value['value']:.6g} {value['unit']}")
            if reported != declared:
                print(f"  reported {sorted(reported.items())}\n  declared {sorted(declared.items())}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def compare(path_a, path_b):
    """Compare the per-trial rows two commits wrote for the same workload and seed."""
    errors = workloads.compare_rows(workloads.read_rows(path_a), workloads.read_rows(path_b), require_all=False)
    for seed, message in errors:
        print(f"seed {seed}: {message}")
    print("rows agree" if not errors else f"{len(errors)} differences")
    return 0 if not errors else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short run of every workload")
    parser.add_argument("--compare-rows", nargs=2, metavar="CSV", help="compare two row files")
    args = parser.parse_args(argv)

    if args.compare_rows:
        return compare(*args.compare_rows)
    if not (ROOT / "src" / "rigid_refine" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        workload = workloads.WORKLOADS[args.workload]
        result, provenance = measure(workload, args.seed, args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"provenance": provenance, "result": result}, indent=1))
    print("provenance: " + json.dumps(provenance))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
