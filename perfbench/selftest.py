#!/usr/bin/env python3
"""Self-test of the benchmark at the tiny size (dim 256, 2 channels).

    python3 perfbench/selftest.py

1. Runs every workload end to end through run.py at the tiny size on the
   pinned seed, untraced and traced, and checks that each run is correct
   and prints exactly the metrics BENCHMARK.json declares.
2. For every stage of every workload, flips one bit of the stage's output
   bytes and checks that the digest gate counts that stage as failed and
   no other.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _check(ok, message):
    print(f"[{'ok' if ok else 'FAIL'}] {message}")
    if not ok:
        sys.exit(1)


def end_to_end_runs(spec):
    for name in ("features", "crossval", "merge"):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            _check(proc.returncode == 0, f"{name} trace {trace}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            declared = {m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
            _check(set(result["metrics"]) == declared,
                   f"{name} trace {trace}: prints exactly the declared metrics")
            _check(result["correct"] and result["failed"] == 0,
                   f"{name} trace {trace}: {result['attempted']} operations, "
                   f"{result['failed']} failed")


class _FlipOneBit:
    """A workload whose output bytes for one stage carry one flipped bit."""

    def __init__(self, wl, stage):
        self.wl, self.stage = wl, stage

    def __getattr__(self, attr):
        return getattr(self.wl, attr)

    def blobs(self, stage, state, out):
        blobs = self.wl.blobs(stage, state, out)
        if stage == self.stage:
            k = next(i for i, b in enumerate(blobs) if b)
            blobs[k] = bytes([blobs[k][0] ^ 1]) + blobs[k][1:]
        return blobs


def bit_flips():
    from tracing import NullTracer

    from workloads import PINNED_SEED, WORKLOADS

    recorded = run._load_digests()["tiny"]
    for name, cls in WORKLOADS.items():
        wl = cls("tiny")
        workdir = run.WORK / f"selftest-{name}"
        try:
            wl.setup(str(workdir), PINNED_SEED)
            state = wl.load(str(workdir))
            clean = run._run_pass(wl, state, NullTracer(), recorded[name])
            _check(clean["complete"], f"{name}: unmodified outputs match the recorded digests")
            for stage in wl.stage_names:
                rec = run._run_pass(_FlipOneBit(wl, stage), state, NullTracer(), recorded[name])
                _check(rec["failed"] == [stage], f"{name}: one flipped bit fails stage {stage!r}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def main():
    run._import_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end_runs(spec)
    bit_flips()
    print("selftest passed")


if __name__ == "__main__":
    main()
