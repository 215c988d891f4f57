"""Show that every check in bench/checks.py can fail.

    python3 bench/selftest.py

Runs each workload once in this process at a reduced size, confirms that
all its checks pass on the real outputs, then feeds each check a copy of
the outputs with one corruption aimed at it and confirms that the check
fails.  Exits 0 only if every check passes clean and fails corrupted.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import job  # noqa: E402

SIZES = {
    "mkl-fit": {"n_train": 200, "n_test": 40},
    "cli-map": {"n_train": 200, "n_test": 20},
    "cli-mbr": {"n_train": 200, "n_test": 4},
}


def _nonempty_row(preds):
    return next(i for i, p in enumerate(preds) if p)


def drop_item_from_map(out):
    """A MAP subset with one item removed has a smaller determinant."""
    row = _nonempty_row(out["preds"])
    out["preds"][row] = tuple(out["preds"][row][1:])


def shift_reported_f(out):
    out["reported_f"] += 1e-6


def untrained_params(out):
    theta, weights, bandwidths, linear = out["fitted"]
    out["fitted"] = ([0.0] * len(theta), [1.0 / len(weights)] * len(weights),
                     bandwidths, linear)


def toggle_item_zero(out):
    """One more membership flip per training label: noise near 0.18."""
    out["train"]["labels"] = [tuple(sorted(set(y) ^ {0}))
                              for y in out["train"]["labels"]]


def drop_likeliest_item(out):
    """Remove from every sample the item with the largest K_ii."""
    L = checks.quality_similarity(out["test"]["X"], out["test"]["Phi"],
                                  *out["fitted"])
    top = int(checks.marginal_diagonals(L)[0].argmax())
    out["samples"][0] = [tuple(i for i in s if i != top) for s in out["samples"][0]]


def least_consensus_sample(out):
    scores = checks.consensus(out["samples"][0])
    out["preds"][0] = min(scores, key=scores.get)


CORRUPTIONS = {
    "map": drop_item_from_map,
    "fscore": shift_reported_f,
    "fit": untrained_params,
    "label_noise": toggle_item_zero,
    "sampler": drop_likeliest_item,
    "consensus": least_consensus_sample,
}


def main():
    work = BENCH / "out" / "selftest"
    ok = True
    for workload, sizes in SIZES.items():
        shutil.rmtree(work, ignore_errors=True)
        result, out = job.run_job(workload, seed=0, work=work, trace=0, sizes=sizes)
        for name, (passed, detail) in result["checks"].items():
            print(f"{workload:8s} {name:12s} clean:     {'pass' if passed else 'FAIL'}  {detail}")
            ok = ok and passed
        for name in job.CHECKS[workload]:
            bad = copy.deepcopy(out)
            CORRUPTIONS[name](bad)
            passed, detail = job.run_checks(workload, bad)[name]
            print(f"{workload:8s} {name:12s} corrupted: {'PASS' if passed else 'fail'}  {detail}")
            ok = ok and not passed
    shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "every check passes clean and fails corrupted" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
