"""The criterion-10 CLI tree: every subcommand, run in-process on two small
synthetic cohorts, into one directory.

    python tests/cli_tree.py OUT

writes each command's outputs under OUT and its exit code, stdout and
stderr to OUT/log/NN_<command>.txt, with paths relative to OUT and
warnings printed without the source line that raised them. Two checkouts
that produce the same bytes give `diff -r`-identical trees. Exits 1 if a
command exits non-zero.
"""

import contextlib
import io
import os
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hdseizure import cli  # noqa: E402

COHORT = ["--subjects", "4", "--records-per-subject", "3", "--channels", "3", "--fs", "64",
          "--seizure-sec", "16", "--non-seizure-sec", "16"]
WINDOWS = ["--window-sec", "4", "--step-sec", "0.5"]
ENCODER = ["--dim", "512", "--levels", "8"]
MERGE = ["--alpha-wrong", "0.75"]
PROTOCOL = ["--step-sec", "0.5", *ENCODER, *MERGE]
SIMILARITY = ["--wrong-weight-convention", "similarity"]


def commands():
    """The 31 command lines, each run from inside OUT."""
    out = [
        ["synth", *COHORT, "--seed", "3", "--out", "cohort_a"],
        ["synth", *COHORT, "--seed", "4", "--out", "cohort_b"],
        ["features", *WINDOWS, "--cohort", "cohort_a", "--out", "feats_a"],
        ["features", *WINDOWS, "--cohort", "cohort_b", "--out", "feats_b"],
    ]
    for mode in ("online", "standard"):
        out.append(["train", *ENCODER, "--train-mode", mode, "--features", "feats_a",
                    "--out", f"models_{mode}"])
        out.append(["eval", *PROTOCOL, "--train-mode", mode, "--repetitions", "3",
                    "--features", "feats_a", "--mode", "both", "--emit-curves",
                    "--out", f"eval_{mode}"])
    for method in ("avrg", "wsub", "waddsub"):
        for convention, tag in (([], "distance"), (SIMILARITY, "similarity")):
            out.append(["generalize", *MERGE, *convention, "--method", method,
                        "--iterations", "2", "--models", "models_online",
                        "--out", f"gen_{method}_{tag}.hdcm"])
    out += [
        ["generalize", *MERGE, "--method", "wsub", "--models", "models_standard",
         "--out", "gen_wsub_standard.hdcm"],
        ["evolution", *MERGE, "--repetitions", "3", "--models", "models_online",
         "--out", "evolution.csv"],
        ["evolution", *MERGE, *SIMILARITY, "--method", "wsub", "--repetitions", "2",
         "--seed", "5", "--models", "models_online", "--out", "evolution_wsub.csv"],
        ["similarity", "--models", "models_online", "--out", "similarity.csv"],
    ]
    for mode in ("NSgen-Spers", "NSpers-Sgen"):
        out.append(["hybrid", "--pers", "models_online/s001.hdcm",
                    "--gen", "gen_waddsub_distance.hdcm", "--mode", mode,
                    "--out", f"hybrid_{mode}.hdcm"])
    for tag, source in (("disjoint", ["--source-features", "feats_b"]),
                        ("own", ["--source-features", "feats_a"]),
                        ("models", ["--source-models", "models_online"])):
        for mode in ("generalized", "NSgen-Spers", "NSpers-Sgen"):
            out.append(["transfer", *PROTOCOL, *source, "--target-features", "feats_a",
                        "--mode", mode, "--out", f"transfer_{tag}"])
    out += [
        ["eval", *PROTOCOL, "--method", "avrg", "--features", "feats_b",
         "--mode", "generalized", "--out", "eval_avrg"],
        ["eval", *PROTOCOL, *SIMILARITY, "--method", "wsub", "--features", "feats_b",
         "--mode", "generalized", "--out", "eval_wsub_similarity"],
    ]
    return out


def _show(message, category, filename, lineno, file=None, line=None):
    print(f"{category.__name__}: {message}", file=sys.stderr)


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        # a fresh filter list also forgets which warnings were shown, as a
        # new process would
        warnings.simplefilter("default")
        warnings.showwarning = _show
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, stdout.getvalue(), stderr.getvalue()


def main(out) -> int:
    os.makedirs(os.path.join(out, "log"), exist_ok=True)
    os.chdir(out)
    failed = 0
    for i, argv in enumerate(commands()):
        rc, stdout, stderr = run(argv)
        failed += rc != 0
        with open(os.path.join("log", f"{i:02d}_{argv[0]}.txt"), "w") as fh:
            fh.write(f"$ hdseizure {' '.join(argv)}\nexit {rc}\n--- stdout\n{stdout}--- stderr\n{stderr}")
        print(f"{i:02d} exit {rc}: {' '.join(argv[:1] + argv[-2:])}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
