"""Benchmark ekrlab end to end (``--trace 0``) or per layer (``--trace 1``).

usage: python3 perfbench/run.py --workload certify|matchings|scans|cli-cold|all
                                [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the library is imported from ``src/``.  Each
measurement runs in fresh processes (worker.py): six that only set up, for
the median ``setup_s``, then one that sets up and runs whole rounds of jobs
for ``--seconds``.  All of them run on one CPU, and every time is scaled to
a reference host speed (hostspeed.py).  The lines printed describe the run;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
README.md records the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify", "matchings", "scans", "cli-cold")
SETUP_REPEATS = 7

sys.path.insert(0, HERE)
from hostspeed import PROCESS, job_probe, pin  # noqa: E402
from worker import per_layer_units  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

END_TO_END_UNITS = {"jobs_per_s": "jobs/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
          deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EKRLAB_LIMIT"}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cmd += ["--setup-only"] if setup_only else []
    probes = [PROCESS, job_probe(workload)]
    before = [probe.measure() for probe in probes]
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    # Set-up is scaled by probes just before the process and just after its
    # set-up: interpreter start and imports by the process probe, the rest by
    # the probe of the workload's jobs.
    result["setup_s"] = sum(part * probe.scale(b, a) for part, probe, b, a in zip(
        result["setup_parts"], probes, before, result["setup_probes"]))
    return result


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload's result line, after printing a readable summary."""
    deadline = time.monotonic() + 170
    setups = [] if trace else [spawn(workload, seed, seconds, trace, True, deadline)["setup_s"]
                               for _ in range(SETUP_REPEATS - 1)]
    main = spawn(workload, seed, seconds, trace, False, deadline)
    setups.append(main["setup_s"])
    pinned = ("CHECK FAILED" if not main["correct"]
              else "pinned digest matches" if seed == DEFAULT_SEED else "no pinned digest")
    print(f"{workload} seed {seed}: {main['attempted']} jobs in {main['rounds']} rounds, "
          f"{main['failed']} failed, round-0 digest {main['digest']} ({pinned})")
    if trace:
        units = per_layer_units()
        values = main["layers"]
    else:
        units = END_TO_END_UNITS
        values = {name: main[name] for name in units if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        print(f"  {'failed_frac':<14} {main['failed'] / main['attempted']:.4g} ratio")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, metric in metrics.items():
        print(f"  {name:<14} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        print(f"  ({main['samples']} latency samples; set-up is the median of {len(setups)})")
    return {"correct": main["correct"], "attempted": main["attempted"],
            "failed": main["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    pin()
    if not os.path.isfile(os.path.join(ROOT, "src", "ekrlab", "__init__.py")):
        print(f"no ekrlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: measure(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{name}.{metric}": value for name, r in results.items()
                            for metric, value in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
