"""Acceptance benchmark matrix.

Each criterion function measures one verifiable claim about the library and
returns a CriterionResult with pass/fail plus the observed numbers.  The CLI
`bench` subcommand and the acceptance test suite both run these; `quick`
shrinks sizes for smoke testing and is never the acceptance configuration.
`append_ledger` appends one JSON record of a run to a perf ledger such as
`BENCH_scaling.json` (`knotflow bench --ledger PATH`).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bct import DEFAULT_BCT_EPS, BlockClusterTree, HierMetric
from .bvh import EdgeBvh, bh_differential
from .constraints import Barycenter, ConstraintSet, EdgeLengths, TotalLength
from .energy import discrete_differential, discrete_energy, validate_params
from .flow import (FlowConfig, StepSolver, crossings_during_motion,
                   minimal_projected_crossings, run_flow)
from .metric import (MetricOperator, SaddleFactor, dense_kernel_matrices,
                     metric_parts)
from .network import CurveNetwork, per_coordinate, stack_fields
from .scenes import generate_test_curve


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime: float
    details: list = field(default_factory=list)
    # the observed numbers a perf ledger records, by name
    numbers: dict = field(default_factory=dict)

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = "; ".join(self.details)
        return f"[{status}] criterion {self.number} ({self.name}) " \
               f"[{self.runtime:.1f}s]: {body}"


def _finite_difference(net, params, h=1e-5):
    base = net.vertices
    grad = np.zeros_like(base)
    for v in range(net.n_vertices):
        for d in range(3):
            plus = base.copy()
            minus = base.copy()
            plus[v, d] += h
            minus[v, d] -= h
            grad[v, d] = (discrete_energy(net.with_positions(plus), params)
                          - discrete_energy(net.with_positions(minus), params)) \
                / (2 * h)
    return grad


def criterion_1(quick=False) -> CriterionResult:
    """Polygon energies approach the analytic circle value."""
    tic = time.perf_counter()
    params = validate_params(2, 4)
    target = np.pi ** 2
    sizes = (16, 32, 64) if quick else (64, 128, 256)
    errors = []
    for n in sizes:
        net = generate_test_curve("circle", n)
        e = discrete_energy(net, params)
        errors.append(abs(e - target) / target)
    details = [f"n={n}: rel_err={err:.3e}" for n, err in zip(sizes, errors)]
    runtime = time.perf_counter() - tic
    accurate = errors[-1] <= 0.02
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    details.append(f"final<=2%: {accurate}")
    details.append(f"strictly decreasing: {monotone}")
    return CriterionResult(1, "circle energy oracle",
                           accurate and monotone and runtime < 10,
                           runtime, details)


def criterion_2(quick=False) -> CriterionResult:
    """Differential matches finite differences; Barnes-Hut stays aligned."""
    tic = time.perf_counter()
    params = validate_params(3, 6)
    trials = 5 if quick else 20
    n = 32
    worst_fd = 0.0
    worst_cos = 1.0
    rng = np.random.default_rng(2024)
    for trial in range(trials):
        theta = 2 * np.pi * np.arange(n) / n
        r = 1.0 + 0.05 * rng.uniform(-1, 1, n)
        z = 0.05 * rng.uniform(-1, 1, n)
        verts = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
        edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        net = CurveNetwork(verts, edges)
        _, exact = discrete_differential(net, params)
        fd = _finite_difference(net, params)
        worst_fd = max(worst_fd,
                       float(np.linalg.norm(exact - fd) / np.linalg.norm(fd)))
        _, approx = bh_differential(net, EdgeBvh(net), params, eps=0.1)
        cosine = float(exact.reshape(-1) @ approx.reshape(-1)
                       / (np.linalg.norm(exact) * np.linalg.norm(approx)))
        worst_cos = min(worst_cos, cosine)
    runtime = time.perf_counter() - tic
    ok = worst_fd <= 1e-5 and worst_cos >= 0.99 and runtime < 60
    return CriterionResult(
        2, "gradient fidelity", ok, runtime,
        [f"{trials} random n={n} polygons",
         f"worst FD rel err {worst_fd:.2e} (<=1e-5)",
         f"worst BH direction cosine {worst_cos:.5f} (>=0.99)"])


def criterion_3(quick=False) -> CriterionResult:
    """Dense metric assembly against brute-force forms, spectrum, scaling."""
    tic = time.perf_counter()
    params = validate_params(3, 6)
    sigma = params.sigma
    rng = np.random.default_rng(7)
    theta = 2 * np.pi * np.arange(8) / 8
    r = 1.0 + 0.2 * rng.uniform(-1, 1, 8)
    verts = np.stack([r * np.cos(theta), r * np.sin(theta),
                      0.1 * rng.uniform(-1, 1, 8)], axis=1)
    edges = np.stack([np.arange(8), (np.arange(8) + 1) % 8], axis=1)
    net = CurveNetwork(verts, edges)

    def brute_high(u, v):
        total = 0.0
        for I, (i1, i2) in enumerate(edges):
            li = np.linalg.norm(verts[i2] - verts[i1])
            for J, (j1, j2) in enumerate(edges):
                if {i1, i2} & {j1, j2}:
                    continue
                lj = np.linalg.norm(verts[j2] - verts[j1])
                w = 0.25 * li * lj * sum(
                    1.0 / np.linalg.norm(verts[i] - verts[j]) ** (2 * sigma + 1)
                    for i in (i1, i2) for j in (j1, j2))
                di = (u[i2] - u[i1]) * (verts[i2] - verts[i1]) / li ** 2 \
                    - (u[j2] - u[j1]) * (verts[j2] - verts[j1]) / lj ** 2
                dv = (v[i2] - v[i1]) * (verts[i2] - verts[i1]) / li ** 2 \
                    - (v[j2] - v[j1]) * (verts[j2] - verts[j1]) / lj ** 2
                total += w * float(di @ dv)
        return total

    def brute_low(u, v):
        total = 0.0
        for I, (i1, i2) in enumerate(edges):
            d_i = verts[i2] - verts[i1]
            li = np.linalg.norm(d_i)
            ti = d_i / li
            for J, (j1, j2) in enumerate(edges):
                if {i1, i2} & {j1, j2}:
                    continue
                lj = np.linalg.norm(verts[j2] - verts[j1])
                w0 = 0.0
                for i in (i1, i2):
                    for j in (j1, j2):
                        diff = verts[i] - verts[j]
                        dist = np.linalg.norm(diff)
                        k24 = np.linalg.norm(np.cross(ti, diff)) ** 2 / dist ** 4
                        w0 += k24 / dist ** (2 * sigma + 1)
                w0 *= 0.25 * li * lj
                total += w0 * (0.5 * (u[i1] + u[i2]) - 0.5 * (u[j1] + u[j2])) \
                    * (0.5 * (v[i1] + v[i2]) - 0.5 * (v[j1] + v[j2]))
        return total

    B, B0 = metric_parts(net, *dense_kernel_matrices(net, sigma))
    u = rng.normal(size=8)
    v = rng.normal(size=8)
    err_b = abs(u @ B @ v - brute_high(u, v)) / abs(brute_high(u, v))
    err_b0 = abs(u @ B0 @ v - brute_low(u, v)) / abs(brute_low(u, v))

    bigger = generate_test_curve("perturbed-circle", 48, seed=1)
    A = MetricOperator(bigger, params).A
    eigvals = np.linalg.eigvalsh(A)
    norm = np.abs(eigvals).max()
    psd = eigvals.min() > -1e-10 * norm
    null_dim = int(np.sum(eigvals < 1e-10 * norm))
    const_null = float(np.linalg.norm(A @ np.ones(len(A)))) < 1e-10 * norm
    sym = np.abs(A - A.T).max() <= 1e-12 * norm

    A2 = MetricOperator(bigger.with_positions(2.0 * bigger.vertices),
                        params).A
    factor = 2.0 ** (-(2 * sigma + 1))
    scale_err = float(np.abs(A2 - factor * A).max() / np.abs(A).max())

    ok = (err_b <= 1e-12 and err_b0 <= 1e-12 and psd and sym
          and null_dim == 1 and const_null and scale_err <= 1e-10)
    return CriterionResult(
        3, "metric correctness", ok, time.perf_counter() - tic,
        [f"quadratic form err B={err_b:.1e} B0={err_b0:.1e} (<=1e-12)",
         f"symmetric={sym} PSD={psd} null_dim={null_dim} const_null={const_null}",
         f"scaling entry err {scale_err:.1e} (<=1e-10)"])


def criterion_4(quick=False) -> CriterionResult:
    """Hierarchical matvec and multigrid solves track the dense versions."""
    tic = time.perf_counter()
    params = validate_params(3, 6)
    sigma = params.sigma
    details = []
    rng = np.random.default_rng(11)
    worst_default = 0.0
    worst_exact = 0.0
    # the n = 64 circle has no admissible block at the default eps; the
    # smooth 256-edge one checks the far field too
    for n, seed in ((64, 2), (256, 5)):
        net = generate_test_curve("perturbed-circle", n, seed=seed)
        psi = rng.normal(size=net.n_edges)
        wants = [dense @ psi for dense in dense_kernel_matrices(net, sigma)]
        errs, blocks = {}, {}
        for eps, bucket in ((DEFAULT_BCT_EPS, "default"), (0.0, "exact")):
            metric = HierMetric(net, sigma,
                                BlockClusterTree(EdgeBvh(net), eps=eps))
            blocks[bucket] = len(metric.bct.adm_a)
            errs[bucket] = max(
                float(np.linalg.norm(K.matvec(psi) - want)
                      / np.linalg.norm(want))
                for K, want in zip((metric.k_high, metric.k_low), wants))
        worst_default = max(worst_default, errs["default"])
        worst_exact = max(worst_exact, errs["exact"])
        details.append(
            f"n={n}: matvec vs dense at default eps: {errs['default']:.2e} "
            f"(<=1e-2), {blocks['default']} admissible blocks; exact "
            f"fallback: {errs['exact']:.2e} (<=1e-12), {blocks['exact']} "
            "admissible blocks")

    # the "hs-mg" solver, which runs V-cycles only where the finest level
    # is hierarchical and takes the exact factor elsewhere
    sizes = (64, 128) if quick else (128, 256, 512)
    worst_mg = 0.0
    answered = []
    for n in sizes:
        cnet = generate_test_curve("perturbed-circle", n, seed=3)
        cs = ConstraintSet([Barycenter.from_network(cnet),
                            TotalLength(cnet.total_length())])
        saddle = StepSolver("hs-mg", cnet, params, cs).saddle
        dE = stack_fields(discrete_differential(cnet, params)[1])
        x = saddle.solve_gradient(dE)
        metric = MetricOperator(cnet, params)
        dense_x = SaddleFactor(metric.A, cs.jacobian(cnet),
                               cnet.dual_masses()).solve_gradient(dE)
        diff = x - dense_x
        dd, xx = (v @ per_coordinate(metric.apply, v) for v in (diff, dense_x))
        rel = float(np.sqrt(max(dd, 0.0)) / np.sqrt(xx))
        worst_mg = max(worst_mg, rel)
        answered.append(f"{saddle.cycles} V-cycles at n={n}" if saddle.levels
                        else f"exact factor at n={n}")
    details.append(
        f"multigrid vs dense saddle (metric norm, n up to {sizes[-1]}): "
        f"{worst_mg:.2e} (<=1e-2); {', '.join(answered)}")
    ok = worst_default <= 1e-2 and worst_exact <= 1e-12 and worst_mg <= 1e-2
    return CriterionResult(4, "hierarchical equivalence", ok,
                           time.perf_counter() - tic, details)


def _trefoil_flow(mode: str, max_iters: int, quick=False):
    n = 64 if quick else 128
    net = generate_test_curve("random-trefoil", n, seed=8)
    cs = ConstraintSet([Barycenter.from_network(net),
                        EdgeLengths.from_network(net)])
    config = FlowConfig(mode=mode, max_iters=max_iters)
    result = run_flow(net, validate_params(3, 6), cs, strategy="hs",
                      config=config)
    return net, result


def criterion_5(quick=False) -> CriterionResult:
    """Constraint residuals and projection iteration counts on the trefoil."""
    tic = time.perf_counter()
    _, result = _trefoil_flow("normalized", 40 if quick else 150, quick)
    residuals = [r.constraint_residual for r in result.reports]
    proj = [r.projection_iters for r in result.reports]
    worst = max(residuals) if residuals else np.inf
    fast = sum(1 for p in proj if p <= 3) / max(len(proj), 1)
    ok = worst <= 1e-8 and fast >= 0.9 and len(result.reports) > 10
    return CriterionResult(
        5, "constraint machinery", ok, time.perf_counter() - tic,
        [f"{len(result.reports)} accepted steps",
         f"max |Phi|_inf {worst:.2e} (<=1e-8)",
         f"projection <=3 iters in {100 * fast:.1f}% of steps (>=90%)"])


def _iterations_to_reach(energies, threshold):
    below = np.flatnonzero(np.asarray(energies) <= threshold)
    return int(below[0]) + 1 if len(below) else None


def criterion_6(quick=False) -> CriterionResult:
    """Fractional preconditioning dominates L2 / H1 / H2 baselines."""
    tic = time.perf_counter()
    params = validate_params(3, 6)
    details = []
    all_ok = True
    benchmarks = [("perturbed-circle",
                   generate_test_curve("perturbed-circle", 64, seed=4,
                                       amplitude=0.3)),
                  ("random-trefoil",
                   generate_test_curve("random-trefoil",
                                       64 if quick else 128, seed=8))]
    # collision-limited stepping for every strategy: bounded, isotopy-safe
    # steps make the iteration-count comparison meaningful (normalized tau=1
    # leaps can scramble a tangled curve into a different basin, or, without
    # collision guards, silently change its topology)
    cap_hs = 80 if quick else 150
    cap_slow = 300 if quick else 600
    for name, net in benchmarks:
        def constraints():
            return ConstraintSet([Barycenter.from_network(net),
                                  TotalLength(net.total_length())])

        reference = run_flow(net, params, constraints(), strategy="hs",
                             config=FlowConfig(mode="collision",
                                               max_iters=cap_hs,
                                               stop_tolerance=1e-5),
                             keep_frames=False)
        threshold = 1.1 * reference.energies[-1]
        counts = {"hs": _iterations_to_reach(reference.energies, threshold)}
        for strategy in ("l2", "h1", "h2"):
            config = FlowConfig(mode="collision", max_iters=cap_slow,
                                stop_tolerance=1e-9, stop_energy=threshold)
            result = run_flow(net, params, constraints(), strategy=strategy,
                              config=config, keep_frames=False)
            reached = _iterations_to_reach(result.energies, threshold)
            counts[strategy] = reached if reached is not None \
                else len(result.energies) + 1
        ratio = counts["hs"] / counts["l2"]
        ok = (ratio <= 0.2 and counts["hs"] < counts["h1"]
              and counts["hs"] < counts["h2"])
        all_ok = all_ok and ok
        details.append(
            f"{name}: iters to 1.1x hs-final: hs={counts['hs']} "
            f"l2={counts['l2']} h1={counts['h1']} h2={counts['h2']} "
            f"(hs/l2={ratio:.3f})")
    runtime = time.perf_counter() - tic
    return CriterionResult(6, "preconditioner dominance",
                           all_ok and runtime < 300, runtime, details)


def _median_step_time(net, params, strategy, accel, iters=3):
    cs = ConstraintSet([Barycenter.from_network(net),
                        TotalLength(net.total_length())])
    config = FlowConfig(max_iters=iters, accel=accel, stop_tolerance=1e-12)
    result = run_flow(net, params, cs, strategy=strategy, config=config,
                      keep_frames=False)
    times = [r.wall_time for r in result.reports]
    if not times:
        raise RuntimeError(f"no accepted steps for {strategy}/{accel}")
    return float(np.median(times))


def _power_law_exponent(sizes, times):
    return float(np.polyfit(np.log(np.asarray(sizes, dtype=float)),
                            np.log(np.asarray(times)), 1)[0])


def criterion_7(quick=False) -> CriterionResult:
    """Near-linear scaling of the accelerated pipeline vs dense growth."""
    tic = time.perf_counter()
    params = validate_params(3, 6)
    fast_sizes = (128, 256, 512) if quick else (256, 512, 1024, 2048, 4096)
    dense_sizes = (128, 256) if quick else (256, 512, 1024)
    fast_times = []
    for n in fast_sizes:
        net = generate_test_curve("perturbed-circle", n, seed=5)
        fast_times.append(_median_step_time(net, params, "hs-mg", "bh"))
    dense_times = []
    for n in dense_sizes:
        net = generate_test_curve("perturbed-circle", n, seed=5)
        dense_times.append(_median_step_time(net, params, "hs", "exact"))
    fast_exp = _power_law_exponent(fast_sizes, fast_times)
    dense_exp = _power_law_exponent(dense_sizes, dense_times)
    runtime = time.perf_counter() - tic
    ok = fast_exp <= 1.3 and dense_exp >= 1.8 and runtime < 900
    fast_detail = " ".join(f"{n}:{t:.2f}s" for n, t in zip(fast_sizes,
                                                           fast_times))
    dense_detail = " ".join(f"{n}:{t:.2f}s" for n, t in zip(dense_sizes,
                                                            dense_times))
    return CriterionResult(
        7, "scaling", ok, runtime,
        [f"accelerated per-iteration [{fast_detail}] exponent "
         f"{fast_exp:.2f} (<=1.3)",
         f"dense per-iteration [{dense_detail}] exponent "
         f"{dense_exp:.2f} (>=1.8)"],
        {"accelerated": {"n": list(fast_sizes), "step_s": fast_times,
                         "exponent": fast_exp},
         "dense": {"n": list(dense_sizes), "step_s": dense_times,
                   "exponent": dense_exp}})


def criterion_8(quick=False) -> CriterionResult:
    """Collision-limited flow preserves the trefoil and decreases energy."""
    tic = time.perf_counter()
    net, result = _trefoil_flow("collision", 150 if quick else 600, quick)
    energies = result.energies
    monotone = bool(np.all(np.diff(energies) <= 1e-12)) if len(energies) \
        else False
    events = 0
    for a, b in zip(result.frames, result.frames[1:]):
        events += crossings_during_motion(net, a, b)
    crossings = minimal_projected_crossings(result.net, samples=40)
    g0 = result.reports[0].gradient_norm if result.reports else np.inf
    g1 = result.reports[-1].gradient_norm if result.reports else np.inf
    near_stationary = (result.stop_reason == "converged"
                       or g1 <= 1e-2 * g0)
    ok = monotone and events == 0 and crossings == 3 and near_stationary
    return CriterionResult(
        8, "isotopy safety", ok, time.perf_counter() - tic,
        [f"{len(result.reports)} steps, stop={result.stop_reason}",
         f"monotone energy: {monotone}",
         f"crossing events during motion: {events} (==0)",
         f"final minimal projected crossings: {crossings} (==3)",
         f"gradient norm {g0:.2e} -> {g1:.2e}"])


CRITERIA = {1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
            5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8}


def run_benchmarks(only=None, quick=False, out_dir=None):
    numbers = sorted(only) if only else sorted(CRITERIA)
    results = [CRITERIA[k](quick=quick) for k in numbers]
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        payload = [{"criterion": r.number, "name": r.name,
                    "passed": r.passed, "runtime_s": r.runtime,
                    "details": r.details} for r in results]
        (out / "benchmarks.json").write_text(json.dumps(payload, indent=2))
    return results


def _git(*args) -> str | None:
    """The output of a git command in the package's source tree, None
    outside a git checkout or without git."""
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True,
                             cwd=Path(__file__).resolve().parent, timeout=30)
    except OSError:
        return None
    return out.stdout if out.returncode == 0 else None


def ledger_record(results, quick: bool = False) -> dict:
    """One perf-ledger record of a benchmark run: each criterion's pass
    flag, runtime and numbers, with nproc, the BLAS numpy uses, the peak
    resident memory of the run so far, and the git revision of the source
    tree with the tracked files changed since it."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    revision = _git("rev-parse", "HEAD")
    changed = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_revision": revision.strip() if revision else None,
        "git_changed": None if changed is None
        else [line[3:] for line in changed.splitlines()],
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "quick": quick,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "criteria": [{"number": r.number, "name": r.name,
                      "passed": r.passed, "runtime_s": r.runtime,
                      **r.numbers} for r in results],
    }


def append_ledger(path, results, quick: bool = False) -> dict:
    """Append the `ledger_record` of `results` to the JSON list in `path`,
    which is created when missing; earlier records are kept as they are."""
    path = Path(path)
    entries = json.loads(path.read_text()) if path.exists() else []
    if not isinstance(entries, list):
        raise ValueError(f"{path}: a perf ledger is a JSON list")
    record = ledger_record(results, quick)
    entries.append(record)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(entries, indent=2) + "\n")
    tmp.replace(path)
    return record
