"""One measurement of one workload, in a fresh process started by run.py.

usage: worker.py --workload W --seed N --seconds S --trace 0|1
                 --spawned T [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes on Linux), so
``setup_parts`` cover interpreter start and ``import ekrlab``, then input
generation and the warm-up jobs.  With ``--setup-only`` the process stops
there.
Otherwise it runs whole rounds, stopping at the round boundary nearest to
``--seconds``, and prints one JSON line.  With ``--trace 1`` each round runs twice on the same
inputs, untraced and then traced, and the line holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from hostspeed import COMPUTE, PROCESS, Scaler, job_probe  # noqa: E402
from tracing import LAYERS, Installation, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, PINNED_DIGESTS, WORKLOADS, CliCold, digest,
)

# Per-layer metrics: name -> unit.  Times and counts are per traced job.
SPAN_SELF = ("families.decode", "families.degrees", "families.intersect",
             "spectral.eigen_mass_full", "spectral.quadratic_form", "spectral.level_masses",
             "lp.fractional_matching", "lp.fractional_cover", "lp.solve",
             "matching.matching_number", "matching.find_matching_by_degree",
             "search.maximal_intersecting", "search.ekr_degree_scan",
             "search.cross_pair_scan", "search.conjecture_scan", "io.parse", "io.emit")
SPAN_TOTAL = ("lp.fractional_matching", "lp.fractional_cover")
SPAN_CALLS = ("families.decode", "spectral.eigen_mass_full", "lp.solve",
              "matching.matching_number")
COUNTS = {"families.unrank.calls": ("families.unrank", "calls/job"),
          "search.cliques": ("search.cliques", "count/job"),
          "search.cross_pairs.tested": ("search.cross_pairs.tested", "pairs/job"),
          "search.cross_pairs.found": ("search.cross_pairs.found", "pairs/job"),
          "io.bytes_in": ("io.bytes_in", "B/job"),
          "io.bytes_out": ("io.bytes_out", "B/job"),
          "cli.import_s": ("cli.import_s", "s/job"),
          "cli.dispatch_s": ("cli.dispatch_s", "s/job")}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s/job" for name in SPAN_SELF}
    units.update({f"{name}.total_s": "s/job" for name in SPAN_TOTAL})
    units.update({f"{name}.calls": "calls/job" for name in SPAN_CALLS})
    units.update({f"{layer}.self_s": "s/job" for layer in LAYERS})
    units["certificates.calls"] = "calls/job"
    units.update({f"{layer}.raised": "count/job" for layer in LAYERS})
    units.update({name: unit for name, (_, unit) in COUNTS.items()})
    units.update({"families.decodes_per_family": "ratio", "lp.solves_per_family": "ratio",
                  "search.cross_pairs.useful_frac": "ratio", "cli.process_s": "s/job",
                  "cli.startup_wait_s": "s/job", "constructions.setup_s": "s",
                  "trace.job_s": "s/job", "trace.overhead_frac": "ratio"})
    return units


class Tally:
    """Latencies, failures and input counts of the jobs run so far.

    ``latencies`` are scaled to the reference host speed (hostspeed.py)
    unless ``probe`` is None; ``raw_s`` sums the unscaled job times.
    """

    def __init__(self, probe=COMPUTE):
        self.scaler = Scaler(probe)
        self.latencies = self.scaler.scaled
        self.raw_s = 0.0
        self.failed = 0
        self.families = 0

    def run(self, jobs) -> tuple[float, list[tuple]]:
        """Run jobs in order; returns (scaled seconds inside jobs, verdicts)."""
        done = len(self.latencies)
        verdicts = []
        for job in jobs:
            start = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a failed job is counted, the run goes on
                elapsed = time.perf_counter() - start
                self._fail(job, exc)
            else:
                elapsed = time.perf_counter() - start
                try:
                    if job.after is not None:
                        job.after(out)
                    verdicts.append(job.check(out))
                except Exception as exc:
                    self._fail(job, exc)
            self.scaler.add(elapsed)
            self.raw_s += elapsed
            self.families += job.families
        self.scaler.flush()
        return sum(self.latencies[done:]), verdicts

    def _fail(self, job, exc: Exception) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"job failed: {job.label}: {type(exc).__name__}: {exc}", file=sys.stderr)


def layer_metrics(tracer: Tracer, setup: Tracer | None, jobs: int, families: int,
                  traced_s: float, untraced_s: float, traced_raw_s: float,
                  cli: bool) -> dict[str, float]:
    """Span times are unscaled, and so are the job times they are set against;
    the overhead compares scaled traced and untraced time."""
    spans, layers, counts = tracer.spans, tracer.layers, tracer.counts
    span = lambda name: spans.get(name, [0, 0.0, 0.0])
    layer = lambda name: layers.get(name, [0, 0.0, 0])
    m = {f"{name}.self_s": span(name)[1] / jobs for name in SPAN_SELF}
    m.update({f"{name}.total_s": span(name)[2] / jobs for name in SPAN_TOTAL})
    m.update({f"{name}.calls": span(name)[0] / jobs for name in SPAN_CALLS})
    m.update({f"{name}.self_s": layer(name)[1] / jobs for name in LAYERS})
    m["certificates.calls"] = layer("certificates")[0] / jobs
    m.update({f"{name}.raised": layer(name)[2] / jobs for name in LAYERS})
    m.update({name: counts.get(key, 0) / jobs for name, (key, _) in COUNTS.items()})
    # Scans pass no family in; their ratio reads 0.
    m["families.decodes_per_family"] = span("families.decode")[0] / families if families else 0.0
    m["lp.solves_per_family"] = span("lp.solve")[0] / families if families else 0.0
    tested = counts.get("search.cross_pairs.tested", 0)
    m["search.cross_pairs.useful_frac"] = counts.get("search.cross_pairs.found", 0) / max(tested, 1)
    m["trace.job_s"] = traced_raw_s / jobs
    m["cli.process_s"] = traced_raw_s / jobs if cli else 0.0
    m["cli.startup_wait_s"] = (m["cli.process_s"] - m["cli.import_s"] - m["cli.dispatch_s"]
                               if cli else 0.0)
    m["constructions.setup_s"] = (setup.layers.get("constructions", [0, 0.0])[1]
                                  if setup is not None else 0.0)
    m["trace.overhead_frac"] = traced_s / untraced_s - 1
    return m


def measure(args, workdir: str) -> dict:
    cli = args.workload == "cli-cold"
    workload = (CliCold(args.seed, ROOT, workdir) if cli
                else WORKLOADS[args.workload](args.seed))
    setup_tracer = Tracer() if args.trace else None
    installed = Installation(setup_tracer) if setup_tracer else None
    workload.setup()
    warm = Tally(probe=None)
    warm.run(workload.warmups())
    if installed:
        installed.remove()
    if warm.failed:
        raise SystemExit(f"{warm.failed} warm-up jobs failed")
    # Interpreter start and imports, then the rest of set-up, and the probes after them.
    probe = job_probe(args.workload)
    setup = {"setup_parts": [args.imported - args.spawned, time.monotonic() - args.imported],
             "setup_probes": [PROCESS.measure(), probe.measure()]}
    if args.setup_only:
        return setup

    tally = Tally(probe)
    tracer = Tracer()
    traced = Tally(probe)
    untraced_s = traced_s = 0.0
    first_digest = None
    start = time.perf_counter()
    rounds = 0
    elapsed = 0.0
    # Stop at the round boundary nearest to --seconds.
    while rounds == 0 or elapsed + elapsed / rounds / 2 < args.seconds:
        busy, verdicts = tally.run(workload.round(rounds))
        untraced_s += busy
        if rounds == 0:
            first_digest = digest(verdicts)
        if args.trace:
            workload.tracer = tracer
            jobs = workload.round(rounds)
            installed = None if cli else Installation(tracer)
            traced_s += traced.run(jobs)[0]
            if installed:
                installed.remove()
            workload.tracer = None
        rounds += 1
        elapsed = time.perf_counter() - start

    lat = tally.latencies
    attempted = len(lat) + len(traced.latencies)
    failed = tally.failed + traced.failed
    pinned = PINNED_DIGESTS[args.workload]
    digest_ok = args.seed != DEFAULT_SEED or first_digest == pinned
    if not digest_ok:
        print(f"round-0 digest {first_digest} differs from the pinned {pinned}", file=sys.stderr)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    result = {
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "digest": first_digest,
        **setup,
        "jobs_per_s": (len(lat) - tally.failed) / untraced_s,
        "job_p50_ms": 1000 * statistics.median(lat),
        "job_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "samples": len(lat),
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, setup_tracer, len(traced.latencies),
                                         traced.families, traced_s, untraced_s,
                                         traced.raw_s, cli)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import ekrlab
    args.imported = time.monotonic()
    if not os.path.abspath(ekrlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"ekrlab imported from {ekrlab.__file__}, not from {src}")
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
