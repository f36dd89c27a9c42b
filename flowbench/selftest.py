"""Self-tests of the benchmark's output checks; no workload is run.

    python3 flowbench/selftest.py

Each check must pass on an intact output and fail on a deliberately broken
one: an edge length off by 1e-6, the trefoil replaced by a circle, a final
energy above the initial one, and so on.
"""

import sys
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

ALPHA, BETA = 3.0, 6.0


def loop(points):
    n = len(points)
    return np.asarray(points, float), \
        np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)


def trefoil(n=60, wiggle=0.0):
    t = 2 * np.pi * np.arange(n) / n
    r = 2 + np.cos(3 * t)
    pts = np.stack([r * np.cos(2 * t), r * np.sin(2 * t), np.sin(3 * t)],
                   axis=1) / 3
    pts[:, 2] += wiggle * np.sin(11 * t)
    return loop(pts)


def circle(n=60):
    t = 2 * np.pi * np.arange(n) / n
    return loop(np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=1))


class EnergyCheck(unittest.TestCase):
    def setUp(self):
        self.start, self.edges = trefoil(wiggle=0.05)
        self.end, _ = trefoil()
        self.e_end = checks.tangent_point_energy(self.end, self.edges,
                                                 ALPHA, BETA)

    def run_check(self, start, end, reported, rel_tol=1e-10, monotone=True):
        return checks.check_energy(start, end, self.edges, reported,
                                   ALPHA, BETA, rel_tol, monotone)

    def test_intact_output_passes(self):
        self.assertEqual(self.run_check(self.start, self.end,
                                        [2 * self.e_end, self.e_end]), [])

    def test_final_energy_above_initial_fails(self):
        self.assertTrue(self.run_check(self.end, self.start, [
            checks.tangent_point_energy(self.start, self.edges, ALPHA, BETA)]))

    def test_reported_energy_off_fails(self):
        self.assertTrue(self.run_check(self.start, self.end,
                                       [self.e_end * (1 + 1e-8)]))

    def test_barnes_hut_gap_within_tolerance_passes(self):
        self.assertEqual(self.run_check(self.start, self.end,
                                        [self.e_end * 1.004], rel_tol=2e-2,
                                        monotone=False), [])

    def test_rising_energy_fails(self):
        self.assertTrue(self.run_check(self.start, self.end,
                                       [0.9 * self.e_end, self.e_end]))

    def test_matches_the_package_energy(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        try:
            from knotflow import CurveNetwork, discrete_energy, validate_params
        except ImportError:
            self.skipTest("knotflow is not importable")
        ours = checks.tangent_point_energy(self.start, self.edges, ALPHA, BETA)
        theirs = discrete_energy(CurveNetwork(self.start, self.edges),
                                 validate_params(ALPHA, BETA))
        self.assertAlmostEqual(ours / theirs, 1.0, delta=1e-12)


class ConstraintCheck(unittest.TestCase):
    def setUp(self):
        self.start, self.edges = trefoil()

    def test_intact_output_passes(self):
        for kind in ("edge-lengths", "total-length"):
            self.assertEqual(checks.check_constraints(
                self.start, self.start.copy(), self.edges, kind), [])

    def test_one_edge_length_off_by_1e_minus_6_fails(self):
        end = self.start.copy()
        tangent = end[1] - end[0]
        end[1] += 1e-6 * tangent / np.linalg.norm(tangent)
        failures = checks.check_constraints(self.start, end, self.edges,
                                            "edge-lengths")
        self.assertTrue(any("edge length" in f for f in failures))

    def test_total_length_off_fails(self):
        center = checks.barycenter(self.start, self.edges)
        length = checks.edge_lengths(self.start, self.edges).sum()
        end = center + (1 + 1e-6 / length) * (self.start - center)
        self.assertEqual(checks.check_constraints(
            self.start, end, self.edges, "total-length"),
            ["total length changed by 1.00e-06"])

    def test_moved_barycenter_fails(self):
        failures = checks.check_constraints(
            self.start, self.start + [0.0, 1e-6, 0.0], self.edges,
            "edge-lengths")
        self.assertEqual(len(failures), 1)
        self.assertIn("barycenter", failures[0])


class TrefoilCheck(unittest.TestCase):
    def test_intact_trefoil_passes(self):
        points, edges = trefoil(wiggle=0.05)
        self.assertEqual(checks.check_trefoil([points, trefoil()[0]], edges),
                         [])

    def test_circle_in_place_of_trefoil_fails(self):
        points, edges = circle()
        failures = checks.check_trefoil([trefoil()[0], points], edges)
        self.assertEqual(failures, ["minimum projected crossings 0, not 3"])

    def test_touching_edges_fail(self):
        points, edges = trefoil()
        touching = points.copy()
        touching[0] = 0.5 * (points[30] + points[31])
        failures = checks.check_trefoil([points, touching, points], edges)
        self.assertEqual([f[:8] for f in failures], ["frame 1:"])


class Geometry(unittest.TestCase):
    def test_edge_gap_matches_sampling(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.normal(size=(4, 3))
            edges = np.array([[0, 1], [2, 3]])
            s = np.linspace(0, 1, 401)
            a = p[0] + s[:, None] * (p[1] - p[0])
            b = p[2] + s[:, None] * (p[3] - p[2])
            sampled = np.linalg.norm(a[:, None] - b[None], axis=2).min()
            gap = checks.min_edge_gap(p, edges)
            self.assertLessEqual(gap, sampled + 1e-12)
            self.assertGreater(gap, sampled - 1e-2)

    def test_axis_symmetries_keep_energy_and_crossings(self):
        points, edges = trefoil(wiggle=0.05)
        energy = checks.tangent_point_energy(points, edges, ALPHA, BETA)
        crossings = checks.min_crossings(points, edges)
        self.assertEqual(crossings, 3)
        for index in (1, 7, 12, 29, 47):
            moved = checks.axis_symmetry(points, index)
            self.assertAlmostEqual(checks.tangent_point_energy(
                moved, edges, ALPHA, BETA) / energy, 1.0, delta=1e-13)
            self.assertEqual(checks.min_crossings(moved, edges), crossings)


if __name__ == "__main__":
    unittest.main()
