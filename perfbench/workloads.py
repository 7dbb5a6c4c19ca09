"""Workload definitions: seeded input generation and the operation lists.

Each workload is a closed loop: one client issues its fixed list of CLI
operations back to back, each through ``kdeforge.cli.main(argv)``.  Inputs are
generated here from the benchmark seed; the program sees only the files and
flags built below.  ``SIZES`` fixes the input sizes of the full run and of the
smoke run, which exercises the same operations and checks at a tiny size.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Univariate two-component normal mixture: (weight, mean, sd) per component.
UNI_MIXTURE = ((0.6, 0.0, 1.0), (0.4, 3.0, 0.7))
# ROC groups: healthy "a" ~ N(0, 1), diseased "b" ~ N(1.5, 1.2^2).
ROC_GROUPS = (("a", 0.0, 1.0), ("b", 1.5, 1.2))
# Four equal clusters at the corners of a square: 4 modes, one interior minimum.
BI_CENTRES = np.array([[-2.5, -2.5], [-2.5, 2.5], [2.5, -2.5], [2.5, 2.5]])
BI_SD = 0.6
# Monte Carlo truth for `simulate`, in the CLI's mixture:w,mu1,mu2,sd1,sd2 form.
MC_TRUTH = "mixture:0.5,-1.5,1.5,1,1"

SIZES = {
    "full": {
        "uni-inference": {"n": 20000, "n_lscv": 1500, "lscv_grid": "0.03:1.0:30",
                          "boot": 1000, "grid": 256, "n_roc": 1000, "roc_boot": 400},
        "bi-features": {"n": 400, "density_grid": 256, "feature_grid": 128,
                        "n_sub": 150, "morse_grid": 32},
        "mc-coverage": {"n": 500, "boot": 200, "grid": 128, "trials": 150},
    },
    "smoke": {
        "uni-inference": {"n": 1500, "n_lscv": 200, "lscv_grid": "0.03:1.0:30",
                          "boot": 200, "grid": 64, "n_roc": 200, "roc_boot": 100},
        "bi-features": {"n": 200, "density_grid": 64, "feature_grid": 48,
                        "n_sub": 60, "morse_grid": 12},
        "mc-coverage": {"n": 200, "boot": 50, "grid": 32, "trials": 20},
    },
}

WORKLOADS = tuple(SIZES["full"])


def _mixture_1d(rng: np.random.Generator, n: int) -> np.ndarray:
    """Exact component counts, so the data's make-up does not vary by seed."""
    parts = []
    left = n
    for i, (w, mu, sd) in enumerate(UNI_MIXTURE):
        k = left if i == len(UNI_MIXTURE) - 1 else round(w * n)
        parts.append(rng.normal(mu, sd, k))
        left -= k
    x = np.concatenate(parts)
    rng.shuffle(x)
    return x


def _clusters_2d(rng: np.random.Generator, n: int) -> np.ndarray:
    per = n // len(BI_CENTRES)
    x = np.concatenate([rng.normal(c, BI_SD, size=(per, 2)) for c in BI_CENTRES])
    rng.shuffle(x)
    return x


def _write(path: Path, rows, header=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        if header:
            w.writerow(header)
        w.writerows(rows)


def rot_bandwidth(data: np.ndarray) -> float:
    """Normal-reference bandwidth, written from its textbook definition.

    d = 1: Silverman's 1.06 min(sd, IQR / 1.34) n^(-1/5); d > 1: mean sd times
    n^(-1/(d+4)).  Used to set inputs and to recompute results in the checks.
    """
    data = np.asarray(data, dtype=float).reshape(len(data), -1)
    n, d = data.shape
    sd = data.std(axis=0, ddof=1)
    if d == 1:
        q75, q25 = np.percentile(data[:, 0], [75, 25])
        iqr = q75 - q25
        scale = min(sd[0], iqr / 1.34) if iqr > 0 else sd[0]
        return 1.06 * scale * n ** -0.2
    return float(sd.mean()) * n ** (-1.0 / (d + 4))


def level_for(data: np.ndarray) -> float:
    """Level for `levelset`: 40 % of one cluster's peak after smoothing.

    Each cluster smoothed at the bandwidth h is N(c, (sd^2 + h^2) I) with
    weight 1/4; 40 % of its peak lies well above the saddles between
    clusters, so the superlevel set has four components.
    """
    h = rot_bandwidth(data)
    var = BI_SD**2 + h**2
    return 0.4 * 0.25 / (2.0 * math.pi * var)


def generate(workload: str, seed: int, size: str, out: Path) -> dict:
    """Write the workload's inputs under ``out`` and return its plan.

    The plan holds ``ops`` (CLI argument lists, with every file under
    ``out``), ``artifacts`` (the files the ops write) and ``params`` (what the
    checks need to know about the inputs).
    """
    s = SIZES[size][workload]
    out.mkdir(parents=True, exist_ok=True)
    p = lambda name: str(out / name)  # noqa: E731
    cli_seed = str(seed)

    if workload == "uni-inference":
        rng = np.random.default_rng([seed, 1])
        big = _mixture_1d(rng, s["n"])
        small = _mixture_1d(rng, s["n_lscv"])
        roc_rows = []
        for label, mu, sd in ROC_GROUPS:
            roc_rows += [[repr(float(v)), label] for v in rng.normal(mu, sd, s["n_roc"])]
        order = rng.permutation(len(roc_rows))
        _write(out / "uni.csv", [[repr(float(v))] for v in big], header=["x"])
        _write(out / "uni_lscv.csv", [[repr(float(v))] for v in small], header=["x"])
        _write(out / "roc.csv", [roc_rows[i] for i in order], header=["value", "group"])
        boot = ["--boot", str(s["boot"]), "--seed", cli_seed, "--grid", str(s["grid"])]
        ops = [
            ["bandwidth", "--input", p("uni_lscv.csv"), "--bandwidth-method", "lscv",
             "--lscv-grid", s["lscv_grid"], "--output", p("bw_lscv.json")],
            ["bandwidth", "--input", p("uni.csv"), "--bandwidth-method", "plugin",
             "--output", p("bw_plugin.json")],
            ["band", "--input", p("uni.csv"), "--method", "debias", *boot,
             "--output", p("band_debias.json")],
            ["band", "--input", p("uni.csv"), "--method", "boot", *boot,
             "--output", p("band_boot.json")],
            ["ci", "--input", p("uni.csv"), "--method", "boot", *boot,
             "--output", p("ci_boot.json")],
            ["cdf", "--input", p("uni.csv"), "--grid", str(s["grid"]),
             "--output", p("cdf.csv")],
            ["roc", "--input", p("roc.csv"), "--group-col", "group",
             "--output", p("roc_curve.csv")],
            ["roc", "--input", p("roc.csv"), "--group-col", "group",
             "--boot", str(s["roc_boot"]), "--seed", cli_seed,
             "--output", p("roc_band.csv")],
        ]
        params = {"seed": seed, "boot": s["boot"], "grid": s["grid"],
                  "lscv_grid": s["lscv_grid"], "roc_boot": s["roc_boot"]}

    elif workload == "bi-features":
        rng = np.random.default_rng([seed, 2])
        data = _clusters_2d(rng, s["n"])
        sub = data[rng.choice(len(data), s["n_sub"], replace=False)]
        rows = lambda a: [[repr(float(u)), repr(float(v))] for u, v in a]  # noqa: E731
        _write(out / "bi.csv", rows(data), header=["x0", "x1"])
        _write(out / "bi_sub.csv", rows(sub), header=["x0", "x1"])
        level = level_for(data)
        fg = ["--grid", str(s["feature_grid"])]
        ops = [
            ["density", "--input", p("bi.csv"), "--grid", str(s["density_grid"]),
             "--output", p("density.csv")],
            ["levelset", "--input", p("bi.csv"), *fg, "--lambda", repr(level),
             "--output", p("levelset.csv")],
            ["tree", "--input", p("bi.csv"), *fg, "--output", p("tree.json")],
            ["persist", "--input", p("bi.csv"), *fg, "--output", p("persist.csv")],
            ["modes", "--input", p("bi.csv"), "--output", p("modes.csv")],
            ["ridge", "--input", p("bi_sub.csv"), "--output", p("ridge.csv")],
            ["morse", "--input", p("bi_sub.csv"), "--grid", str(s["morse_grid"]),
             "--output", p("morse.csv")],
        ]
        params = {"level": level, "density_grid": s["density_grid"],
                  "feature_grid": s["feature_grid"], "morse_grid": s["morse_grid"]}

    elif workload == "mc-coverage":
        common = ["--truth", MC_TRUTH, "--n", str(s["n"]), "--boot", str(s["boot"]),
                  "--grid", str(s["grid"]), "--trials", str(s["trials"]),
                  "--seed", cli_seed]
        ops = [
            ["simulate", "--method", "band-debiased", *common,
             "--output", p("sim_debiased.json")],
            ["simulate", "--method", "band-bootstrap", *common,
             "--output", p("sim_bootstrap.json")],
        ]
        params = {"seed": seed, **s, "truth": MC_TRUTH}
    else:
        raise ValueError(f"unknown workload {workload!r}")

    artifacts = [op[op.index("--output") + 1] for op in ops]
    return {"ops": ops, "artifacts": artifacts, "params": params}


if __name__ == "__main__":
    import argparse
    import json

    ap = argparse.ArgumentParser(description="Write a workload's inputs and "
                                 "print the CLI operations that use them.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--smoke", action="store_true", help="the smoke run's sizes")
    ap.add_argument("--out", default=".perfbench/inputs", help="output directory")
    args = ap.parse_args()
    plan = generate(args.workload, args.seed % 2**63, "smoke" if args.smoke else "full",
                    Path(args.out) / args.workload)
    for op in plan["ops"]:
        print("kdeforge " + " ".join(op))
    print(json.dumps(plan["params"]))
