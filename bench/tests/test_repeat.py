"""Counts from two traced runs on one seed repeat exactly, so later
count-based claims can rest on them."""

import pytest

import pipeline
import run
import workloads
from bernfit import approx

SEED = 1
COUNTERS = (
    "kkt.subsets_examined",
    "kkt.systems_solved",
    "cone.objective_evals",
    "simplex.orthogonal_complement_basis.calls",
)
# the counters each workload exists to drive
DRIVEN = {
    "interval": ("kkt.subsets_examined", "cone.objective_evals"),
    "triangle": ("simplex.orthogonal_complement_basis.calls",),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(name, tmp_path):
    quads = {1: approx.default_rule(1), 2: approx.default_rule(2)}
    runs = []
    for _ in range(2):
        invocations = workloads.WORKLOADS[name](SEED)
        tracer, rows, errors = run.traced(invocations, quads, tmp_path)
        assert errors == []
        metrics = run.per_layer(tracer, rows, rows)
        counts = {k: metrics[k][0] for k in COUNTERS}
        counts["err_ratio_gmean"] = pipeline.error_ratio_gmean(rows)
        runs.append(counts)
    assert runs[0] == runs[1]
    assert all(runs[0][counter] > 0 for counter in DRIVEN[name])
