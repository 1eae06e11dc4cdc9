"""Which parts of scipy each entry point loads.

Importing the package loads numpy only; `features.bandpass_filter` loads
`scipy.signal`, `_SignedSums` loads `scipy.linalg.blas`, and the normal
approximation of `wilcoxon_signed_rank` loads `scipy.special`. Each case
runs in a fresh interpreter, because this test process has scipy loaded
already.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def scipy_modules_after(code, cwd=None):
    """The sorted `scipy` modules loaded after `code` runs in a fresh
    interpreter, in `cwd`, with the package on its path."""
    script = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        textwrap.dedent(code),
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))",
    ])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_and_cli_import_load_no_scipy():
    assert scipy_modules_after("import hdseizure, hdseizure.cli") == []


def test_merge_path_loads_neither_signal_nor_stats(tmp_path):
    loaded = scipy_modules_after("""
        import numpy as np
        from hdseizure import dataio, generalization
        from hdseizure.encoding import build_codebooks
        from hdseizure.hybrid import compose_hybrid
        from hdseizure.similarity import pairwise_matrices, separability, wilcoxon_signed_rank

        books = build_codebooks(1, 2, 256, 0)
        paths = []
        for m in dataio.synthetic_model_cohort(14, dim=256, s_flip=0.36, ns_flip=0.32,
                                               class_overlap_flip=0.42, seed=0):
            paths.append(f"{m.subject_id}.hdcm")
            dataio.save_model(m, books, paths[-1])
        models = [dataio.load_model(path)[0] for path in paths]
        cfg = generalization.MergeConfig(alpha_wrong=0.75)
        gen = generalization.generalize(models, cfg)
        generalization.evolution_curve(models, cfg, repetitions=2)
        mats = pairwise_matrices(models)
        s_means = mats.s_to_s.mean(axis=1)
        ns_means = mats.ns_to_ns.mean(axis=1)
        assert np.count_nonzero(s_means != ns_means) > 12  # the normal approximation
        wilcoxon_signed_rank(s_means, ns_means)
        separability(gen, models)
        [compose_hybrid(m, gen, "NSgen-Spers") for m in models]
    """, tmp_path)
    assert "scipy.special" in loaded and "scipy.linalg.blas" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.signal", "scipy.stats"))]


def test_feature_extraction_after_a_fresh_import():
    loaded = scipy_modules_after("""
        import numpy as np
        from hdseizure.features import SignalRecord, extract_features

        rng = np.random.default_rng(0)
        record = SignalRecord(fs=256, channels=["A"], samples=rng.standard_normal((1, 1536)),
                              labels=np.zeros(1536))
        assert np.isfinite(extract_features(record).values).all()
    """)
    assert "scipy.signal" in loaded
