"""The benchmark's spans (`flowbench/spans.py`) patch `knotflow` entry points
by module or class attribute name; installing them must find every one, and
their hooks must still read what they expect from a real traced run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_spans_install_finds_every_entry_point():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT / "flowbench", env=env, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr


# one traced flow step on a curve whose finest multigrid level applies
# HierMetric, with the output checks of the circle-mg workload; the benchmark
# workloads themselves are small enough for dense levels throughout
TRACED_FLOW = """
import json

import checks
import spans
import workloads
from knotflow import (ConstraintSet, FlowConfig, generate_test_curve,
                      run_flow, validate_params)
from knotflow.constraints import Barycenter, TotalLength

net = generate_test_curve("perturbed-circle", 512, seed=5)
cs = ConstraintSet([Barycenter.from_network(net),
                    TotalLength(net.total_length())])
tracer = spans.Tracer()
spans.install(tracer)
result = run_flow(net, validate_params(workloads.ALPHA, workloads.BETA), cs,
                  strategy="hs-mg",
                  config=FlowConfig(mode="normalized", accel="bh",
                                    max_iters=1))
final = result.net.vertices
w = workloads.WORKLOADS["circle-mg"]
failures = checks.check_energy(
    net.vertices, final, net.edges, [r.energy for r in result.reports],
    workloads.ALPHA, workloads.BETA, w.energy_rel_tol, monotone=False)
failures += checks.check_constraints(net.vertices, final, net.edges,
                                     w.constraint)
print(json.dumps({"checks": failures,
                  "layers": spans.layer_metrics(tracer, result)}))
"""


def test_traced_operation_reads_its_layer_stats():
    # one traced flow step (about 1 s): the spans' `after` hooks read the
    # block cluster tree and the V-cycle info at run time, and the energy
    # and tree spans see their calls
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_FLOW], cwd=ROOT / "flowbench", env=env,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["checks"] == []
    assert out["layers"]["flow.steps"] == 1
    assert out["layers"]["bct.near_nnz"] > 0
    assert out["layers"]["bct.admissible_blocks"] > 0
    # the step-start Barnes-Hut work runs inside the patched entry points
    assert out["layers"]["energy.diff_s"] > 0
    assert out["layers"]["bvh.refits"] > 0


@pytest.mark.parametrize("workload", ["trefoil-dense", "circle-mg",
                                      "trefoil-mg"])
def test_untraced_workload_passes_its_output_checks(workload):
    # one untraced operation each (about 2 s): the run reaches the target
    # energy and every output check of `flowbench/worker.py` passes
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "flowbench/worker.py", "--workload", workload,
         "--seed", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert "failure" not in out, out["failure"]
    assert out["checks"] == []
    assert out["stop_reason"] == "target-energy"
