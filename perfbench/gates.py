"""The benchmark's correctness gates and the binary formats its helpers write.

Each gate returns a list of problems; an empty list means the output passed.
They are pure functions over bytes and records, so `test_gates.py` can hand
each one a single altered byte, line or reply and check that it is caught.
"""

import re
import struct

# Every section `StudyReport::render` prints, in order.
SECTION_HEADERS = [
    "== §3 Data collection ==",
    "== Fig 2: monthly timeline ==",
    "== Fig 3: expiry→re-registration delay (days) ==",
    "== Fig 4: re-registrations per domain ==",
    "== Fig 5: catches per address ==",
    "== Table 1: features ==",
    "== Fig 6: previous-owner income (USD) ==",
    "== Fig 7: hijackable USD per expired domain ==",
    "== Fig 8: misdirected USD per domain ==",
    "== Figs 9/11: common-sender tx scatter ==",
    "== Fig 10: dropcatcher profit ==",
    "== §4.2 resale market ==",
    "== Table 2: wallet warnings ==",
]

# `loadgen --out`: status, new-connection flag, latency ns, body length, FNV-1a.
RECORD = struct.Struct("<HHIIQ")
# `reference --expected` and `tracer serve --out`: status, body length, FNV-1a.
EXPECTED = struct.Struct("<HIQ")
# Header of one sampled reply: index, status, body length; the body follows.
SAMPLE = struct.Struct("<QHI")


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def read_records(data):
    """(status, new_connection, latency_ns, length, hash) per request."""
    return list(RECORD.iter_unpack(data))


def read_expected(data):
    """(status, length, hash) per target or replayed request."""
    return list(EXPECTED.iter_unpack(data))


def read_samples(data):
    """{index: (status, body)} from a samples file."""
    out, pos = {}, 0
    while pos < len(data):
        index, status, length = SAMPLE.unpack_from(data, pos)
        pos += SAMPLE.size
        out[index] = (status, bytes(data[pos:pos + length]))
        pos += length
    return out


def same_bytes(reference, candidate, what="dataset"):
    """The `simulate` gate: a file byte-identical to the reference run's."""
    if reference == candidate:
        return []
    if len(reference) != len(candidate):
        return [f"{what} is {len(candidate)} bytes, the reference {len(reference)}"]
    first = next(i for i, (a, b) in enumerate(zip(reference, candidate)) if a != b)
    return [f"{what} differs from the reference at byte {first}"]


def crawl_health(stderr):
    """Gaps and item recovery from a `simulate` command's stderr; a crawl
    that lost nothing prints no DEGRADED line."""
    found = re.search(r"DEGRADED: (\d+) gaps, .*item recovery ([\d.]+)%", stderr)
    if found is None:
        return {"gaps": 0, "item_recovery": 1.0}
    return {"gaps": int(found.group(1)), "item_recovery": float(found.group(2)) / 100}


def report_problems(text):
    """Why a rendered report would make the `analyze` gate vacuous."""
    problems = [f"missing section {h!r}" for h in SECTION_HEADERS if h not in text]
    found = re.search(r"re-registered: (\d+)", text)
    if found is None or int(found.group(1)) == 0:
        problems.append("the report finds no re-registrations")
    return problems


def analyze_gate(reference, candidate):
    """The `analyze` gate: stdout byte-identical to `--threads 1`, and the
    reference itself non-vacuous."""
    problems = report_problems(reference.decode("utf-8", "replace"))
    if candidate != reference:
        ref_lines, cand_lines = reference.splitlines(), candidate.splitlines()
        diff = next(
            (i for i, (a, b) in enumerate(zip(ref_lines, cand_lines)) if a != b),
            min(len(ref_lines), len(cand_lines)),
        )
        problems.append(f"report differs from --threads 1 at line {diff + 1}")
    return problems


def serve_failures(records, expected, start=0):
    """Indices of the requests the `serve` gate fails: a transport error, or a
    status, length or body hash other than the in-process answer. Request
    `i` asked for target `i mod len(expected)`. Typed 4xx answers to the
    mix's deliberate misses are in `expected`, so they pass."""
    failed = []
    for k, (status, _new, _ns, length, digest) in enumerate(records):
        index = start + k
        if status == 0 or (status, length, digest) != expected[index % len(expected)]:
            failed.append(index)
    return failed


def sample_failures(samples, reference_samples, targets):
    """Indices whose sampled reply differs from the reference's verbatim one.
    The reference samples every target whose index is a multiple of the
    sampling step, and `targets` is a multiple of it, so every sampled
    request has a reference sample."""
    return [
        index
        for index, reply in samples.items()
        if reference_samples.get(index % targets) != reply
    ]
