"""The benchmark's own tests.

    python3 bench/selftest.py            # all tests, each workload traced twice
    python3 bench/selftest.py -k Span    # only the fast tracer tests

Run from the root of a checkout.  Not collected by the repository's pytest
run (the file name does not match test_*.py): the counter test runs every
workload twice, about a minute.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import subprocess
import sys
import tempfile
import unittest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXACT = (".calls", ".points", ".bytes", "bytes_computed", "quad_nodes")


class SpanSummaryTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [  # (id, name, start, end, parent, run)
            (1, "kspace.density", 1.0, 2.0, 0, "r"),
            (2, "kspace.density", 2.5, 3.0, 0, "r"),
            (0, "moments.uncertainty_product", 0.5, 4.0, None, "r"),
            (3, "cli.main", 5.0, 6.0, None, "r"),
        ]
        s = tracer.summarize(spans, wall_s=7.0)
        self.assertAlmostEqual(s["self"]["moments.uncertainty_product"], 2.0)
        self.assertAlmostEqual(s["busy"]["kspace.density"], 1.5)
        self.assertAlmostEqual(s["unattributed_s"], 7.0 - 3.5 - 1.0)
        self.assertAlmostEqual(sum(s["layer_self"].values()) + s["unattributed_s"], 7.0)

    def test_every_binding_site_is_wrapped_and_restored(self):
        import rsuncert
        from rsuncert import kspace, moments, propagator

        original = kspace.fourier_to_position
        tr = tracer.Tracer("test")
        tr.install()
        try:
            self.assertIsNot(kspace.fourier_to_position, original)
            for site in (moments, propagator, rsuncert):
                self.assertIs(site.fourier_to_position, kspace.fourier_to_position)
        finally:
            tr.uninstall()
        for site in (kspace, moments, propagator, rsuncert):
            self.assertIs(site.fourier_to_position, original)

    def test_importtime_parser_counts_outermost_imports(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       scipy._lib",
            "import time:       200 |        300 |     scipy",
            "import time:        50 |        350 |   scipy.fft",
            "import time:        10 |        360 | rsuncert.kspace",
            "import time:        40 |         40 | scipy.linalg",
        ])
        self.assertAlmostEqual(run._top_level_cumulative(text, "scipy"), 390e-6)
        self.assertAlmostEqual(run._top_level_cumulative(text, "rsuncert"), 360e-6)


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.make_inputs(w, 7), workloads.make_inputs(w, 7))
            self.assertNotEqual(workloads.make_inputs(w, 7), workloads.make_inputs(w, 8))

    def test_fixed_helicity_mix(self):
        modes = [p["mode"] for p in workloads.make_inputs("analytic-batch", 3)["pairs"]]
        self.assertEqual((modes.count("both"), modes.count("plus"), modes.count("minus")),
                         (14, 13, 13))


def traced_pass(workload, seed, tmp, k):
    pass_dir = Path(tmp) / f"pass{k}"
    pass_dir.mkdir()
    result = Path(tmp) / f"pass{k}.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), "--workload",
                    workload, "--seed", str(seed), "--trace", "1", "--pass-dir",
                    str(pass_dir), "--result", str(result)],
                   env=run.child_env(), check=True, timeout=300)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


class TracedPassTest(unittest.TestCase):
    def test_counters_repeat_and_self_times_add_up(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w), tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                first, second = (traced_pass(w, 11, tmp, k) for k in (0, 1))
                exact = {k: v for k, v in first["trace"]["counts"].items()
                         if k.endswith(EXACT)}
                self.assertTrue(exact)
                self.assertEqual(first["trace"]["counts"], second["trace"]["counts"])
                for res in (first, second):
                    s = res["trace"]["summary"]
                    total = sum(s["layer_self"].values()) + s["unattributed_s"]
                    self.assertAlmostEqual(total, res["wall_s"], delta=1e-9 * res["wall_s"])
                    self.assertLessEqual(s["unattributed_s"], 0.1 * res["wall_s"])


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
