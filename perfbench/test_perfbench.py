"""Tests of the benchmark's own code (standard library only).

    python3 -m unittest discover -s perfbench
"""

import itertools
import sys
import unittest

import measure
import oracle
import tracing
import workloads


class OrbitTest(unittest.TestCase):
    def test_representative_sorts_real_points_and_pairs(self):
        # P2[4,1]: E1..E4 real, (E5, E6) a conjugate pair
        coords = (5, -1, 0, -2, -1, -1, -1)
        self.assertEqual(oracle.orbit_representative("P2[4,1]", coords),
                         (5, -2, -1, -1, 0, -1, -1))
        # P2[2,2]: pairs (E3, E4) and (E5, E6) swap as units
        self.assertEqual(oracle.orbit_representative("P2[2,2]", (4, 0, -1, 0, 0, -2, -2)),
                         (4, -1, 0, -2, -2, 0, 0))

    def test_members_share_the_representative(self):
        coords = (5, -2, -1, -1, 0, -1, -1)
        members = oracle.orbit_members("P2[4,1]", coords)
        self.assertEqual(len(members), 12)  # 4!/2! arrangements of 2,1,1,0
        for m in members:
            self.assertEqual(oracle.orbit_representative("P2[4,1]", m), coords)
            self.assertEqual(m[5], m[6])  # the pair keeps one multiplicity

    def test_members_match_brute_force_relabelling(self):
        coords = (6, -3, -2, -1, -1, -2, -2)
        real_perms = {
            (6,) + tuple(coords[1 + i] for i in p) + coords[5:]
            for p in itertools.permutations(range(4))
        }
        self.assertEqual(set(oracle.orbit_members("P2[4,1]", coords)), real_perms)

    def test_cubic_has_no_relabelling(self):
        self.assertEqual(oracle.orbit_members("B1", (2, 1, 2)), [(2, 1, 2)])
        self.assertEqual(oracle.orbit_representative("B1", (2, 1, 2)), (2, 1, 2))


class OracleTest(unittest.TestCase):
    def test_golden_lookup(self):
        self.assertEqual(oracle.golden_value("P2[6,0]", "0", (3,) + (-1,) * 6), 8)
        self.assertEqual(oracle.golden_value("P2[2,2]", "0", (6,) + (-2,) * 6), 236)
        self.assertEqual(oracle.golden_value("B1", "F", (2, 2, 2)), 160)
        self.assertEqual(oracle.golden_value("B1", "0", (1, 1, 1)), 0)
        self.assertIsNone(oracle.golden_value("B1", "F", (1, 1, 2)))
        self.assertEqual(len(oracle.GOLDEN), 16)

    def test_nef_big_tests(self):
        self.assertTrue(oracle.p2_nef_big((3,) + (-1,) * 6))  # -K
        self.assertTrue(oracle.p2_nef_big((1,) + (0,) * 6))  # L
        self.assertFalse(oracle.p2_nef_big((1, -1, 0, 0, 0, 0, 0)))  # L - E1: D^2 = 0
        self.assertFalse(oracle.p2_nef_big((2, -1, -1, -1, -1, -1, 0)))  # a line class
        self.assertFalse(oracle.p2_nef_big((1, -1, -1, 0, 0, 0, 0)))  # L-E1-E2 is a line
        self.assertTrue(oracle.cubic_nef_big((1, 1, 1)))
        self.assertFalse(oracle.cubic_nef_big((1, 1, 0)))  # D^2 = 0
        self.assertFalse(oracle.cubic_nef_big((3, 1, 1)))  # negative on L1

    def test_enumeration(self):
        self.assertEqual(oracle.nef_big_classes("B1", 4),
                         [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)])
        classes = oracle.nef_big_classes("P2[4,1]", 5)
        self.assertEqual(len(classes), len(set(classes)))
        for c in classes:
            self.assertTrue(oracle.p2_nef_big(c))
            self.assertTrue(1 <= oracle.antik("P2[4,1]", c) <= 5)
            self.assertEqual(c[5], c[6])
        reps = oracle.nef_big_orbits("P2[4,1]", 5)
        self.assertEqual(sum(len(oracle.orbit_members("P2[4,1]", r)) for r in reps),
                         len(classes))

    def test_class_text(self):
        self.assertEqual(oracle.class_text("P2[6,0]", (3, -1, -1, -1, -1, -1, 0)),
                         "3;1,1,1,1,1,0")
        self.assertEqual(oracle.class_text("B1", (1, 2, 3)), "1,2,3")


class MeasureTest(unittest.TestCase):
    def test_p90_needs_a_hundred_samples(self):
        with self.assertRaises(ValueError):
            measure.percentile(list(range(99)), 0.9)
        self.assertEqual(measure.percentile(list(range(1, 101)), 0.9), 90)
        self.assertEqual(measure.percentile([3.0, 1.0, 2.0], 0.5), 2.0)

    def test_times_in_reference_passes(self):
        # ops of 20 ms and 4 ms against passes of 2 ms and 0.5 ms
        self.assertEqual(measure.in_passes([0.02, 0.004], [0.002, 0.0005]), [10.0, 8.0])
        with self.assertRaises(ValueError):
            measure.in_passes([0.02], [])

    def test_reference_spends_its_share(self):
        passes, cpu, wall = measure.reference_after(0.0)
        self.assertEqual(passes, 1)
        passes, cpu, wall = measure.reference_after(0.02)
        self.assertGreaterEqual(cpu, measure.REF_SHARE * 0.02)
        self.assertGreater(wall, 0.0)

    def test_setup_in_reference_seconds(self):
        # 28 ms of set-up against passes of 30 ms and 40 ms: 0.8 passes
        self.assertAlmostEqual(measure.setup_in_seconds(0.028, [0.03, 0.04]),
                               0.8 * measure.REF_IMPORT_SECONDS)
        with self.assertRaises(ValueError):
            measure.setup_in_seconds(0.028, [])

    def test_reference_imports_leave_modules_as_they_were(self):
        before = set(sys.modules)
        self.assertGreater(measure.reference_imports(), 0.0)
        self.assertEqual(set(sys.modules), before)

    def test_spread(self):
        self.assertAlmostEqual(measure.spread([1.0, 2.0, 3.0, 4.0, 5.0]), 3.0 / 3.0)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        t = tracing.Tracer()
        a, b = t._id("a"), t._id("b")
        for name, start, end, parent in ((a, 0.0, 10.0, -1), (b, 2.0, 5.0, 0),
                                         (b, 6.0, 7.0, 0), (a, 3.0, 4.0, 1)):
            t.span_name.append(name)
            t.span_start.append(start)
            t.span_end.append(end)
            t.span_parent.append(parent)
        own = t.self_times()
        self.assertAlmostEqual(own["a"], 6.0 + 1.0)
        self.assertAlmostEqual(own["b"], 2.0 + 1.0)

    def test_wrappers_nest_and_count(self):
        t = tracing.Tracer()

        def gen(n):
            yield from range(n)

        inner = t.wrap_generator("g", gen)
        outer = t.wrap("f", lambda: sum(inner(3)))
        self.assertEqual(outer(), 3)
        self.assertEqual(t.calls["f"], 1)
        self.assertEqual(t.calls["g"], 1)
        # one span for f, one per resume of g (three items and the end)
        self.assertEqual(len(t.span_start), 5)
        self.assertTrue(all(t.span_parent[i] == 0 for i in range(1, 5)))

    def test_patch_is_undone(self):
        class Owner:
            def f(self):
                return 1

        t = tracing.Tracer()
        original = Owner.f
        t.patch(Owner, "f", t.wrap("f", Owner.f))
        self.assertEqual(Owner().f(), 1)
        t.uninstall()
        self.assertIs(Owner.f, original)


class DrawTest(unittest.TestCase):
    def test_cold_draw_is_seeded_and_large_enough(self):
        draws = []
        for seed in (1, 1, 2):
            w = workloads.ColdClasses()
            w.make_inputs(seed, workloads.HERE)  # writes nothing
            draws.append(w.classes)
        self.assertEqual(draws[0], draws[1])
        self.assertNotEqual(draws[0], draws[2])
        self.assertGreaterEqual(len(draws[0]), 100)
        self.assertEqual(len(set(draws[0])), len(draws[0]))
        raw = [c for s, c in draws[0] if oracle.orbit_representative(s, c) != c]
        self.assertTrue(raw)
        # the fixed costly members are in every draw, as raw members
        for surface, members in workloads.ColdClasses.fixed.items():
            for coords in members:
                self.assertIn((surface, coords), draws[2])
                self.assertNotEqual(oracle.orbit_representative(surface, coords), coords)

if __name__ == "__main__":
    unittest.main()
