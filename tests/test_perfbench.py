"""The benchmark's traced work counts at a pinned seed.

`perfbench/run.py --trace 1` counts what the pipeline did by wrapping
package functions from outside; `training.train_online` reports its
mispredictions through the `stats=` dict the tracer passes in. The counts
are fixed by the seed, so a change in how much work a protocol does, or
a trainer the tracer no longer reaches, changes them."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXPECTED = {
    "crossval": {
        "encoding.encoded_rows": 2784,
        "encoding.codebook_builds": 6,
        "training.samples": 2088,
        "training.models": 28,
        "training.mispredictions": 363,
        "generalization.merge_steps": 14,
    },
    "merge": {"generalization.merge_steps": 144},
}

#: layers each workload must reach: the tracer reports 0 for a name that is
#: gone, so a protocol that stopped calling through `evaluation`'s globals
#: would otherwise go unseen
REACHED = {
    "crossval": ("encoding.encode_s", "encoding.fit_ranges_s", "encoding.codebooks_s",
                 "training.train_s", "generalization.generalize_s", "hybrid.compose_s",
                 "evaluation.postprocess_s", "evaluation.metrics_s"),
    "merge": (),
}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_counts_at_seed_zero(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--size", "tiny", "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    counts = {name: result["metrics"][name]["value"] for name in EXPECTED[workload]}
    assert counts == EXPECTED[workload]
    unreached = [name for name in REACHED[workload] if not result["metrics"][name]["value"] > 0]
    assert unreached == []
