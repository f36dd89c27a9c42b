import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from knotflow.cli import main
from knotflow.energy import discrete_energy, validate_params
from knotflow.flow import FlowConfig, minimal_projected_crossings
from knotflow.scenes import (SceneError, generate_test_curve, load_obj_curve,
                             parse_scene, save_obj_curve, serialize_scene)

from oracles import component_labels, octahedron_sphere, save_obj_mesh

MINIMAL_SCENE = """
[curve]
kind = circle
n = 24

[constraint]
type = barycenter
"""


class TestParse:
    def test_minimal_scene_defaults(self):
        scene = parse_scene(MINIMAL_SCENE)
        params = scene.build_params()
        assert params.alpha == 3 and params.beta == 6
        strategy, config = scene.build_flow_config()
        assert strategy == "hs"
        assert config.stop_tolerance == 1e-4
        assert config.mode == "normalized"

    def test_flow_defaults_come_from_flow_config(self):
        # a scene without [flow] takes every default from FlowConfig
        assert parse_scene(MINIMAL_SCENE).build_flow_config() \
            == ("hs", FlowConfig())

    def test_every_flow_key_reaches_flow_config(self):
        text = MINIMAL_SCENE + ("\n[flow]\nstrategy = hs-mg\n"
                                "stepping = collision\naccel = bh\n"
                                "max_iters = 7\nstop_tolerance = 1e-6\n"
                                "armijo = 0.25\nbacktrack = 0.75\n"
                                "bh_eps = 0.125\n")
        assert parse_scene(text).build_flow_config() == ("hs-mg", FlowConfig(
            mode="collision", accel="bh", max_iters=7, stop_tolerance=1e-6,
            armijo=0.25, backtrack=0.75, bh_eps=0.125))

    def test_invalid_energy_window_named(self):
        text = MINIMAL_SCENE + "\n[energy]\nalpha = 2\nbeta = 5\n"
        with pytest.raises(SceneError, match="2\\*alpha \\+ 1"):
            parse_scene(text)

    def test_missing_obstacle_reported(self, tmp_path):
        text = MINIMAL_SCENE + ("\n[potential]\ntype = surface\n"
                                "path = missing.obj\n")
        scene = parse_scene(text)
        with pytest.raises(SceneError, match="missing.obj"):
            scene.build_potentials(scene.build_params())

    def test_unknown_key_with_line_number(self):
        with pytest.raises(SceneError, match=":3"):
            parse_scene("[curve]\nkind = circle\nbogus = 1\n")

    def test_round_trip(self):
        text = MINIMAL_SCENE + ("\n[flow]\nstrategy = l2\nmax_iters = 7\n"
                                "\n[output]\ndirectory = out\nstride = 2\n")
        scene = parse_scene(text)
        again = parse_scene(serialize_scene(scene))

        def strip(s):
            return [{k: v[0] for k, v in sec.items() if not k.startswith("__")}
                    | {"__name__": sec["__name__"]} for sec in s.sections]
        assert strip(again) == strip(scene)
        assert again.build_flow_config() == scene.build_flow_config()
        assert again.output_settings() == scene.output_settings()

    @pytest.mark.parametrize("record", [
        "type = point\nvertex = -1", "type = point\nvertex = 99",
        "type = surface\nvertex = 99", "type = tangent\nedge = 99"],
        ids=["point-negative", "point-past", "surface-past", "tangent-past"])
    def test_index_out_of_range_named(self, record):
        text = MINIMAL_SCENE.replace("n = 24", "n = 16") \
            + f"\n[constraint]\n{record}\n"
        scene = parse_scene(text)
        key = record.split("\n")[1].split(" = ")[0]
        with pytest.raises(SceneError, match=f"<scene>:11: {key} -?[0-9]+ "
                           f"is out of range 0..15"):
            scene.build_constraints(scene.build_curve())

    def test_bad_exponent_named(self, tmp_path):
        save_obj_mesh(tmp_path / "ball.obj", octahedron_sphere())
        path = tmp_path / "scene.knot"
        path.write_text(MINIMAL_SCENE + "\n[potential]\ntype = surface\n"
                        "path = ball.obj\nexponent = abc\n")
        scene = parse_scene(path)
        with pytest.raises(SceneError, match=":12: bad value for 'exponent'"):
            scene.build_potentials(scene.build_params())

    def test_stride_only_output_section(self):
        scene = parse_scene(MINIMAL_SCENE + "\n[output]\nstride = 5\n")
        assert scene.output_settings() == {"directory": None, "stride": 5}

    @pytest.mark.parametrize("text, message", [
        ("[curve]\nkind = file\n", "<scene>: curve kind 'file' needs a path"),
        ("[curve]\nn = 8\n", "<scene>:1: \\[curve\\] needs 'kind'"),
    ], ids=["path", "required"])
    def test_missing_key_messages(self, text, message):
        with pytest.raises(SceneError, match=message):
            parse_scene(text).build_curve()

    def test_full_accel_rejected(self):
        text = MINIMAL_SCENE + "\n[flow]\naccel = full\n"
        with pytest.raises(SceneError, match="unknown accel 'full'"):
            parse_scene(text).build_flow_config()


class TestGenerators:
    def test_circle_n4_is_square(self):
        net = generate_test_curve("circle", 4)
        assert net.n_vertices == 4
        assert np.allclose(np.linalg.norm(net.vertices, axis=1), 1.0)
        lengths = net.geometry().lengths
        assert np.allclose(lengths, np.sqrt(2.0))

    def test_torus_knot_embedded(self):
        net = generate_test_curve("torus-knot", 96, p=2, q=3)
        from knotflow.scenes import _min_pair_gap

        assert _min_pair_gap(net) > 0.01

    @pytest.mark.parametrize("min_index_gap", [1, 5])
    def test_min_pair_gap_matches_all_pair_loop(self, min_index_gap):
        from knotflow.flow import _segment_gap
        from knotflow.scenes import _min_pair_gap

        net = generate_test_curve("random-trefoil", 48, seed=9)
        p, edges, E = net.vertices, net.edges, net.n_edges
        want = np.inf
        for i in range(E):
            for j in range(i + 1, E):
                if set(edges[i]) & set(edges[j]) \
                        or min(j - i, E - (j - i)) < min_index_gap:
                    continue
                gap = _segment_gap(p[edges[[i], 0]], p[edges[[i], 1]],
                                   p[edges[[j], 0]], p[edges[[j], 1]])
                want = min(want, float(gap[0]))
        assert _min_pair_gap(net, min_index_gap) == want

    def test_trefoil_is_actually_a_trefoil(self):
        net = generate_test_curve("random-trefoil", 128, seed=5)
        assert minimal_projected_crossings(net, samples=40) == 3

    @pytest.mark.parametrize("n", [48, 128, 384])
    @pytest.mark.parametrize("seed", [5, 8, 9])
    def test_random_trefoil_equals_all_pairs_certificate(self, monkeypatch,
                                                         n, seed):
        # the tree broad phases accept and reject the same trial bumps as
        # the all-pairs gap and crossing checks
        import knotflow.flow
        import knotflow.scenes
        from oracles import crossings_all_pairs, min_pair_gap_all_pairs

        fast = generate_test_curve("random-trefoil", n, seed=seed)
        monkeypatch.setattr(knotflow.scenes, "_min_pair_gap",
                            min_pair_gap_all_pairs)
        monkeypatch.setattr(knotflow.flow, "crossings_during_motion",
                            crossings_all_pairs)
        slow = generate_test_curve("random-trefoil", n, seed=seed)
        assert np.array_equal(fast.vertices, slow.vertices)

    def test_determinism(self):
        a = generate_test_curve("random-trefoil", 64, seed=9)
        b = generate_test_curve("random-trefoil", 64, seed=9)
        assert np.array_equal(a.vertices, b.vertices)
        c = generate_test_curve("perturbed-circle", 32, seed=1)
        d = generate_test_curve("perturbed-circle", 32, seed=2)
        assert not np.allclose(c.vertices, d.vertices)

    def test_grid_braid_open_strands(self):
        net = generate_test_curve("grid-braid", 30, seed=0, strands=3)
        assert net.endpoints.size == 6
        assert len(np.unique(component_labels(net))) == 3

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            generate_test_curve("helix", 32)


class TestObjCurves:
    def test_roundtrip(self, tmp_path):
        net = generate_test_curve("torus-knot", 48)
        path = tmp_path / "curve.obj"
        save_obj_curve(path, net)
        again = load_obj_curve(path)
        assert np.allclose(again.vertices, net.vertices)
        assert np.array_equal(again.edges, net.edges)

    def test_short_vertex_named(self, tmp_path):
        path = tmp_path / "curve.obj"
        path.write_text("v 0 0 0\nv 1 2\nl 1 2\n")
        with pytest.raises(SceneError, match="curve.obj:2: a vertex needs 3"):
            load_obj_curve(path)

    @pytest.mark.parametrize("record", ["l 1 2 x", "l 0 1"])
    def test_bad_line_index_named(self, tmp_path, record):
        path = tmp_path / "curve.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\n{record}\n")
        with pytest.raises(SceneError, match="curve.obj:3: line indices"):
            load_obj_curve(path)


    def test_line_index_past_count_named(self, tmp_path):
        path = tmp_path / "curve.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nl 1 3\n")
        with pytest.raises(SceneError, match="curve.obj:3: index 3 is past "
                           "the 2 vertices"):
            load_obj_curve(path)


class TestCliSolve:
    def scene_file(self, tmp_path, extra=""):
        path = tmp_path / "scene.knot"
        path.write_text(MINIMAL_SCENE + extra)
        return path

    def test_solve_writes_outputs_and_exit_code(self, tmp_path, capsys):
        scene = self.scene_file(tmp_path, """
[curve]
kind = perturbed-circle
n = 24
seed = 1

[constraint]
type = total-length

[flow]
max_iters = 4
""")
        # the second [curve] section is rejected: write a clean scene instead
        scene.write_text("""
[curve]
kind = perturbed-circle
n = 24
seed = 1

[constraint]
type = barycenter

[constraint]
type = total-length

[flow]
max_iters = 4
""")
        out = tmp_path / "out"
        code = main(["solve", str(scene), "--out", str(out), "--stride", "2"])
        assert code in (0, 3)
        assert (out / "log.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] <= 4
        frames = sorted(out.glob("frame_*.obj"))
        assert len(frames) >= 2

    def test_solve_out_with_stride_only_output_section(self, tmp_path):
        scene = self.scene_file(tmp_path, "\n[flow]\nmax_iters = 4\n"
                                          "\n[output]\nstride = 3\n")
        out = tmp_path / "out"
        main(["solve", str(scene), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        # frames 0 and 3 by the stride, then the last one
        assert summary["iterations"] == 4
        assert summary["frames_written"] == 3
        assert len(list(out.glob("frame_*.obj"))) == 3

    def test_duplicate_curve_section_rejected(self, tmp_path):
        path = tmp_path / "bad.knot"
        path.write_text(MINIMAL_SCENE + "\n[curve]\nkind = circle\nn = 8\n")
        with pytest.raises(SceneError, match="multiple"):
            scene = parse_scene(path)
            scene.build_curve()

    def test_final_frame_reproduces_logged_energy(self, tmp_path):
        path = tmp_path / "scene.knot"
        path.write_text("""
[curve]
kind = perturbed-circle
n = 20
seed = 3

[constraint]
type = barycenter

[constraint]
type = total-length

[flow]
max_iters = 6
""")
        out = tmp_path / "run"
        main(["solve", str(path), "--out", str(out), "--stride", "1"])
        summary = json.loads((out / "summary.json").read_text())
        frames = sorted(out.glob("frame_*.obj"))
        final = load_obj_curve(frames[-1])
        params = validate_params(3, 6)
        energy = discrete_energy(final, params)
        assert energy == pytest.approx(summary["final_energy"], rel=1e-10)

    def test_csv_row_count_matches_iterations(self, tmp_path):
        path = tmp_path / "scene.knot"
        path.write_text("""
[curve]
kind = circle
n = 16

[constraint]
type = barycenter

[flow]
max_iters = 3
""")
        out = tmp_path / "run"
        main(["solve", str(path), "--out", str(out)])
        rows = (out / "log.csv").read_text().strip().splitlines()
        summary = json.loads((out / "summary.json").read_text())
        assert len(rows) - 1 == summary["iterations"]

    @pytest.mark.parametrize("flow, message", [
        ("armijo = 0.9", ":9: \\[flow\\] armijo parameter must lie in "
                         "\\(0, 0.5\\]"),
        ("strategy = bogus", ": unknown strategy 'bogus'"),
        ("stop_tolerance = nan", ":9: \\[flow\\] stop tolerance must be "
                                 "positive")],
        ids=["out-of-range", "unknown-strategy", "nan-stop-tolerance"])
    def test_flow_error_reported_without_traceback(self, tmp_path, capsys,
                                                   flow, message):
        path = self.scene_file(tmp_path, f"\n[flow]\n{flow}\n")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"knotflow: {re.escape(str(path))}{message}\n",
                            err), err

    @pytest.mark.parametrize("text, message", [
        (MINIMAL_SCENE.replace("n = 24", "n = 2"), ":2: need n >= 4"),
        (MINIMAL_SCENE + "\n[constraint]\ntype = total-length\n"
                         "target = abc\n",
         ":11: bad value for 'target': could not convert string to float: "
         "'abc'"),
        (MINIMAL_SCENE + "target = 1 2\n",
         ":8: bad value for 'target': expected three numbers"),
        (MINIMAL_SCENE + "target = inf 0 0\n",
         ":6: barycenter target must be finite"),
        (MINIMAL_SCENE + "\n[constraint]\ntype = tangent\nedge = 0\n"
                         "target = 0 0 0\n",
         ":9: tangent target must be a finite nonzero vector"),
        (MINIMAL_SCENE + "\n[potential]\ntype = field\naxis = 0 0 0\n",
         ":9: field direction must be a finite nonzero vector"),
        (MINIMAL_SCENE + "\n[potential]\ntype = field\nfield = rotation\n"
                         "axis = nan 0 1\n",
         ":9: rotation axis must be a finite nonzero vector"),
        (MINIMAL_SCENE + "\n[constraint]\ntype = total-length\n"
                         "target = inf\n",
         ":9: total-length target must be finite"),
        (MINIMAL_SCENE + "\n[constraint]\ntype = total-length\n"
                         "target = nan\n",
         ":9: total-length target must be finite"),
        (MINIMAL_SCENE + "\n[constraint]\ntype = total-length\n"
                         "growth = nan\n",
         ":9: total-length growth must be finite"),
        (MINIMAL_SCENE + "\n[constraint]\ntype = edge-length\n"
                         "growth = inf\n",
         ":9: edge-length growth must be finite"),
        (MINIMAL_SCENE + "\n[constraint]\ntype = point\nvertex = 0\n"
                         "target = 0 0 inf\n",
         ":9: point target must be finite"),
        (MINIMAL_SCENE + "\n[constraint]\ntype = point\nvertex = 0\n"
                         "target = nan 0 0\n",
         ":9: point target must be finite"),
        (MINIMAL_SCENE + "\n[constraint]\ntype = surface\nvertex = 0\n"
                         "center = 0 0 inf\n",
         ":9: sphere center must be finite"),
        (MINIMAL_SCENE + "\n[constraint]\ntype = surface\nvertex = 0\n"
                         "radius = nan\n",
         ":9: sphere radius must be finite and positive"),
        (MINIMAL_SCENE + "\n[potential]\ntype = total-length\n"
                         "weight = nan\n",
         ":9: potential weight must be finite")],
        ids=["curve-n", "total-length-target", "barycenter-target",
             "barycenter-infinite", "tangent-zero", "field-zero-axis",
             "rotation-nan-axis", "total-length-infinite",
             "total-length-nan", "total-length-growth-nan",
             "edge-length-growth-infinite", "point-infinite", "point-nan",
             "sphere-center-infinite", "sphere-radius-nan",
             "potential-weight-nan"])
    def test_scene_value_reported_without_traceback(self, tmp_path, capsys,
                                                     text, message):
        path = tmp_path / "scene.knot"
        path.write_text(text)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err \
            == f"knotflow: {path}{message}\n"

    def test_dependent_constraints_reported_without_traceback(
            self, tmp_path, capsys):
        # two barycenter sections: the flow's first factor finds the rank
        # loss, and the message names the dependent rows
        path = self.scene_file(tmp_path, "\n[constraint]\ntype = barycenter\n")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("knotflow: constraint Jacobian is rank "
                              "deficient; dependent rows involve: "
                              "['barycenter -> "), err
        assert err.count("barycenter") == 2 and err.endswith("]\n")

    def test_missing_scene_file_reported(self, tmp_path, capsys):
        path = tmp_path / "missing.knot"
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err \
            == f"knotflow: scene file not found: {path}\n"

    def test_solve_prints_stop_detail(self, tmp_path, capsys):
        path = tmp_path / "scene.knot"
        path.write_text("""
[curve]
kind = circle
n = 16

[constraint]
type = barycenter

[flow]
max_iters = 2
""")
        code = main(["solve", str(path)])
        out = capsys.readouterr().out
        assert code == 3
        assert out.startswith("max_iters (reached max_iters = 2): 2 iterations")


def test_python_m_knotflow_runs_the_cli():
    # `python -m knotflow` works from a source checkout, without installing
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "knotflow", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: knotflow")
    assert "bench" in proc.stdout


def test_bench_ledger_appends_one_record_per_run(tmp_path, monkeypatch,
                                                 capsys):
    # step times stand in for the flows: n on the accelerated path, n^2 on
    # the dense one, so criterion 7 reads exponents 1 and 2
    import knotflow.bench as bench

    monkeypatch.setattr(
        bench, "_median_step_time",
        lambda net, params, strategy, accel:
        1e-3 * net.n_edges ** (1 if accel == "bh" else 2))
    ledger = tmp_path / "BENCH_scaling.json"
    assert main(["bench", "--only", "7", "--quick",
                 "--ledger", str(ledger)]) == 0
    first = json.loads(ledger.read_text())
    assert main(["bench", "--only", "1", "7", "--quick",
                 "--ledger", str(ledger)]) == 0
    capsys.readouterr()
    entries = json.loads(ledger.read_text())
    assert len(entries) == 2 and entries[0] == first[0]
    record = entries[1]
    assert record["quick"] is True and record["nproc"] >= 1
    assert record["blas"]["name"] and "git_revision" in record
    assert isinstance(record["peak_rss_mb"], float) \
        and record["peak_rss_mb"] > 0
    assert [(c["number"], c["passed"]) for c in record["criteria"]] \
        == [(1, True), (7, True)]
    scaling = record["criteria"][1]
    assert scaling["accelerated"]["n"] == [128, 256, 512]
    assert scaling["accelerated"]["step_s"] == pytest.approx([0.128, 0.256,
                                                              0.512])
    assert scaling["accelerated"]["exponent"] == pytest.approx(1.0)
    assert scaling["dense"]["n"] == [128, 256]
    assert scaling["dense"]["exponent"] == pytest.approx(2.0)


def test_bench_ledger_keeps_a_file_that_is_not_a_list(tmp_path):
    from knotflow.bench import CriterionResult, append_ledger

    ledger = tmp_path / "ledger.json"
    ledger.write_text('{"not": "a list"}')
    with pytest.raises(ValueError, match="JSON list"):
        append_ledger(ledger, [CriterionResult(1, "x", True, 0.0)])
    assert ledger.read_text() == '{"not": "a list"}'
