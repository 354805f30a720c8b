"""Tests of the benchmark itself: python3 -m pytest perfbench/selftest.py

The file name keeps these out of the library's own test collection.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ekrlab  # noqa: E402
from hostspeed import SLICE_S, Probe, Scaler  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracing import Installation, Tracer  # noqa: E402
from worker import Tally, per_layer_units  # noqa: E402
from workloads import WORKLOADS, CheckFailed, CliCold, Certify, Matchings  # noqa: E402


def test_self_time_of_a_nested_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("certificates.ekr_certificate")   # 0 .. 10
    tracer.enter("families.decode")                # 1 .. 4
    tracer.enter("families.decode")                # 2 .. 3, nested in the same name
    tracer.exit()
    tracer.exit()
    tracer.enter("spectral.level_masses")          # 5 .. 9, raises
    tracer.exit(raised=True)
    tracer.exit(raised=True)
    assert tracer.spans["certificates.ekr_certificate"] == [1, 3.0, 10.0]
    assert tracer.spans["families.decode"] == [1, 3.0, 3.0]
    assert tracer.spans["spectral.level_masses"] == [1, 4.0, 4.0]
    assert tracer.layers == {"certificates": [1, 3.0, 1], "families": [1, 3.0, 0],
                             "spectral": [1, 4.0, 1]}
    merged = Tracer()
    merged.merge(tracer.snapshot())
    merged.merge(tracer.snapshot())
    assert merged.spans["families.decode"] == [2, 6.0, 6.0]
    assert merged.layers["spectral"] == [2, 8.0, 2]


def test_wrappers_count_decodes_and_come_off_again():
    original = ekrlab.ekr_certificate
    tracer = Tracer()
    installed = Installation(tracer)
    try:
        assert ekrlab.ekr_certificate is not original
        ekrlab.ekr_certificate(ekrlab.star(9, 4))
    finally:
        installed.remove()
    assert ekrlab.ekr_certificate is original
    assert ekrlab.certificates.vertex_degrees.__name__ == "vertex_degrees"
    assert "wrapper" not in repr(ekrlab.families.Family.edge_tuples)
    assert tracer.spans["families.decode"][0] == 5
    assert tracer.spans["certificates.ekr_certificate"][0] == 1
    assert tracer.counts["families.unrank"] == 5 * 56


def test_scaler_scales_each_slice_by_the_probes_around_it():
    probes = iter([1.0, 3.0, 2.0])
    scaler = Scaler(Probe(lambda: next(probes), reference_s=1.0))
    scaler.add(SLICE_S / 2)
    scaler.add(SLICE_S / 2)       # closes slice 1, probes on both sides: 1 s and 3 s
    scaler.add(SLICE_S / 4)
    scaler.flush()                # closes slice 2: 3 s and 2 s
    scaler.flush()                # nothing pending, no probe
    assert scaler.scaled == pytest.approx([SLICE_S / 4, SLICE_S / 4, SLICE_S / 4 / 2.5])
    unscaled = Scaler(probe=None)
    unscaled.add(0.3)
    unscaled.flush()
    assert unscaled.scaled == [0.3]


def _first(jobs, prefix):
    return next(job for job in jobs if job.label.startswith(prefix))


@pytest.mark.parametrize("prefix, corrupt", [
    ("ekr_certificate", lambda c: dataclasses.replace(c, is_star=not c.is_star)),
    ("ekr_certificate", lambda c: dataclasses.replace(c, f1=c.f1 + 1)),
    ("eigen_mass_full", lambda m: dataclasses.replace(m, quad_form=m.quad_form + 2)),
    ("simplex_witness", lambda w: dataclasses.replace(w, lhs=w.lhs - 1)),
])
def test_checker_rejects_a_corrupted_certify_verdict(prefix, corrupt):
    workload = Certify(0)
    workload.setup()
    job = _first(workload.round(0), prefix)
    out = job.run()
    job.check(out)
    with pytest.raises(CheckFailed):
        job.check(corrupt(out))


def test_checker_rejects_a_corrupted_matching_number():
    workload = Matchings(0)
    workload.setup()
    job = _first(workload.round(0), "matching+LPs")
    (nu, witness), frac_m, frac_c = job.run()
    job.check(((nu, witness), frac_m, frac_c))
    with pytest.raises(CheckFailed):
        job.check(((nu + 1, witness), frac_m, frac_c))
    with pytest.raises(CheckFailed):
        job.check(((nu, witness), frac_m, dataclasses.replace(frac_c, weights={})))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_completes_a_few_jobs(name):
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as workdir:
        workload = CliCold(0, ROOT, workdir) if name == "cli-cold" else WORKLOADS[name](0)
        workload.setup()
        tally = Tally()
        tally.run(workload.warmups())
        jobs = [job for job in workload.round(0) if "cross_pair_scan(7,3)" not in job.label]
        busy, verdicts = tally.run(jobs[:3])
    assert tally.failed == 0 and len(verdicts) == 3 and busy > 0


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
