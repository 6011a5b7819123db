#!/usr/bin/env python3
"""The benchmark's own tests: every gate passes on real outputs of a tiny
world, and catches one altered dataset byte, report line or reply body.

    python3 perfbench/test_gates.py

Builds the CLI and the serve helpers the way run.py does, then works under
`.bench_work/test-gates/`.
"""

import re
import shutil
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import gates  # noqa: E402
import run  # noqa: E402

# A tiny world: the gates see the same kinds of output as at full size.
run.NAMES = 1500
run.TARGETS = 3000
SEED = 11


def flip_byte(data, at):
    altered = bytearray(data)
    altered[at] ^= 0x01
    return bytes(altered)


class GateTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build("serve", 0)
        cls.work = run.ROOT / ".bench_work" / "test-gates"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        [(_, cls.dataset, _)] = run.buildable(cls.work, "dataset", SEED, 1, run.clean_cmd)

    def test_simulate_gate_catches_one_altered_byte(self):
        [(world, reference, _)] = run.buildable(
            self.work, "sim-ref", SEED, 1, lambda p, w: run.simulate_cmd(w, p, threads=1))
        measured = self.work / "sim-measured.ensc"
        cmd = run.simulate_cmd(world, measured, checkpoint=self.work / "sim.ckpt")
        run.run(self.work, "sim-measured", cmd).check("simulate")
        expected, got = reference.read_bytes(), measured.read_bytes()
        self.assertEqual(gates.same_bytes(expected, got), [])

        for at in (0, len(got) // 2, len(got) - 1):
            found = gates.same_bytes(expected, flip_byte(got, at))
            self.assertEqual(found, [f"dataset differs from the reference at byte {at}"])
        self.assertEqual(len(gates.same_bytes(expected, got[:-1])), 1)

    def test_analyze_gate_catches_one_altered_line(self):
        reference = run.run(self.work, "ana-ref", run.analyze_cmd(self.dataset, threads=1)).check("analyze").out()
        measured = run.run(self.work, "ana-measured", run.analyze_cmd(self.dataset)).check("analyze").out()
        self.assertEqual(gates.analyze_gate(reference, measured), [])

        lines = measured.split(b"\n")
        for i in (0, len(lines) // 2, len(lines) - 2):
            altered = lines.copy()
            altered[i] += b" "
            found = gates.analyze_gate(reference, b"\n".join(altered))
            self.assertEqual(found, [f"report differs from --threads 1 at line {i + 1}"])

    def test_analyze_gate_rejects_a_vacuous_report(self):
        text = run.run(self.work, "ana-text", run.analyze_cmd(self.dataset)).check("analyze").out().decode()
        self.assertEqual(gates.report_problems(text), [])
        for header in gates.SECTION_HEADERS:
            self.assertEqual(gates.report_problems(text.replace(header, "")), [f"missing section {header!r}"])
        emptied = re.sub(r"re-registered: \d+", "re-registered: 0", text)
        self.assertEqual(gates.report_problems(emptied), ["the report finds no re-registrations"])

    def test_serve_gate_catches_one_altered_reply(self):
        ref = run.Reference(self.work, "reference", SEED, self.dataset)
        expected, targets = ref.expected, ref.targets
        daemon = run.Daemon(self.work, "daemon", self.dataset)
        try:
            _, records, samples = run.load(self.work, "load", daemon.addr, ref.path, 1.0, 0)
        finally:
            daemon.stop()
        self.assertGreater(len(records), len(targets), "the load should wrap around the targets")
        self.assertEqual(ref.failures(records, samples), set())
        self.assertTrue({s for s, *_ in records} >= {200, 400, 404}, "the mix should include typed misses")

        # One body byte altered in a sampled reply: its hash and its
        # verbatim copy both disagree with the reference.
        index = max(samples)
        status, body = samples[index]
        self.assertEqual(records[index][4], gates.fnv1a(body), "the helpers should hash as gates.fnv1a does")
        altered = flip_byte(body, len(body) // 2)
        tampered = records.copy()
        s, new, ns, length, _ = tampered[index]
        tampered[index] = (s, new, ns, length, gates.fnv1a(altered))
        self.assertEqual(gates.serve_failures(tampered, expected), [index])
        self.assertEqual(gates.sample_failures({**samples, index: (status, altered)}, ref.samples, len(targets)),
                         [index])

        # A changed status, a changed length and a transport error.
        for k, field, value in ((1, 0, 418), (2, 3, records[2][3] + 1), (3, 0, 0)):
            tampered = records.copy()
            row = list(tampered[k])
            row[field] = value
            tampered[k] = tuple(row)
            self.assertEqual(gates.serve_failures(tampered, expected), [k])


class FormatTests(unittest.TestCase):
    def test_only_a_panic_while_building_the_world_moves_the_seed(self):
        work = run.ROOT / ".bench_work" / "test-formats"
        work.mkdir(parents=True, exist_ok=True)
        cases = [
            (101, "building world: 60000 names, seed 14...\nthread 'main' panicked\n", True),
            (101, "building world: 60000 names, seed 3...\ncrawling (subgraph)...\npanicked\n", False),
            (0, "building world: 60000 names, seed 3...\n", False),
        ]
        for code, err, expected in cases:
            (work / "case.err").write_text(err)
            self.assertEqual(run.world_failed(run.Run(1.0, 1.0, code, work / "case.out", work / "case.err")), expected)

    def test_fnv1a_matches_the_published_vectors(self):
        self.assertEqual(gates.fnv1a(b""), 0xCBF29CE484222325)
        self.assertEqual(gates.fnv1a(b"a"), 0xAF63DC4C8601EC8C)

    def test_crawl_health_reads_the_degraded_line(self):
        line = "DEGRADED: 9 gaps, ~735 items lost, item recovery 99.682%\n"
        self.assertEqual(gates.crawl_health(line), {"gaps": 9, "item_recovery": 0.99682})
        self.assertEqual(gates.crawl_health("collected 10 domains\n"), {"gaps": 0, "item_recovery": 1.0})


if __name__ == "__main__":
    unittest.main()
