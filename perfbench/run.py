#!/usr/bin/env python3
"""End-to-end benchmark of the kdeforge CLI.

Run from the root of a kdeforge checkout:

    python3 perfbench/run.py --workload uni-inference --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload bi-features --smoke

One run generates the workload's inputs from ``--seed``, measures set-up
(fresh interpreters importing ``kdeforge.cli``), runs the operation list in a
separate worker process for ``--seconds`` of whole rounds, checks every
artifact, and prints the metrics.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` repeats the rounds with per-layer spans and reports
the per-layer metrics.  ``--smoke`` runs one round at tiny sizes, with every
check, in seconds.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Metric names and units come from BENCHMARK.json at the checkout root.
Inputs and artifacts go to ``.perfbench/<workload>/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

SETUP_SAMPLES = 5      # fresh interpreters per run; their median is setup_s
WORKER_TIMEOUT = 150   # seconds; a run must end within 180
IMPORTTIME_MODULES = {  # per-layer set-up metric -> module in `-X importtime`
    "setup.kdeforge_import_s": "kdeforge",
    "setup.scipy_stats_import_s": "scipy.stats",
    "setup.scipy_spatial_import_s": "scipy.spatial",
    "setup.scipy_ndimage_import_s": "scipy.ndimage",
    "setup.scipy_sparse_import_s": "scipy.sparse",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: Path) -> dict:
    """Environment of the measured processes: the checkout's sources and one
    BLAS thread (on a 2-core machine, two threads widen the run-to-run spread).
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict, samples: int, src: Path) -> float:
    """Median time from starting a fresh interpreter to `kdeforge.cli` imported.

    The child reads the same monotonic clock once the import is done.
    """
    code = "import kdeforge.cli, time; print(time.perf_counter(), kdeforge.cli.__file__)"
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        stamp, path = res.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(src):
            raise RuntimeError(f"imported {path.strip()}, not the checkout's")
        times.append(float(stamp) - t0)
    return statistics.median(times)


def measure_importtime(env: dict, samples: int) -> dict:
    """Median cumulative import time of the set-up modules, from -X importtime."""
    found = {name: [] for name in IMPORTTIME_MODULES}
    for _ in range(samples):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kdeforge.cli"],
                             env=env, capture_output=True, text=True, timeout=60, check=True)
        cumulative = {}
        for line in res.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) * 1e-6
        for name, module in IMPORTTIME_MODULES.items():
            found[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(v) for name, v in found.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round at tiny sizes, with every check")
    args = ap.parse_args()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "kdeforge" / "cli.py").is_file():
        return fail(f"no kdeforge sources under {src}; run from a checkout's root")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    seed = args.seed % 2**63  # the generators take non-negative seeds
    size = "smoke" if args.smoke else "full"
    seconds = 0.0 if args.smoke else args.seconds
    samples = 1 if args.smoke else SETUP_SAMPLES
    run_dir = root / ".perfbench" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    plan = workloads.generate(args.workload, seed, size, run_dir)
    env = child_env(root)

    if args.trace:
        setup_layers = measure_importtime(env, samples)
    else:
        setup_s = measure_setup(env, samples, src)

    job_path, result_path = run_dir / "job.json", run_dir / "result.json"
    job_path.write_text(json.dumps({"ops": plan["ops"], "artifacts": plan["artifacts"],
                                    "seconds": seconds, "trace": args.trace}))
    worker = Path(__file__).resolve().parent / "worker.py"
    try:
        subprocess.run([sys.executable, str(worker), str(job_path), str(result_path)],
                       env=env, timeout=WORKER_TIMEOUT, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return fail(f"worker failed: {exc}")
    result = json.loads(result_path.read_text())
    if not Path(result["module"]).resolve().is_relative_to(src):
        return fail(f"worker imported {result['module']}, not the checkout's")

    rounds = len(result["round_s"])
    ops = len(plan["ops"])
    attempted = rounds * ops
    failed = sum(code != 0 for codes in result["codes"] for code in codes)

    problems = []
    if failed:
        problems.append(f"{failed} operations failed; codes {result['codes'][-1]}")
    elif any(d != result["digests"][0] for d in result["digests"]):
        problems.append("rounds wrote different artifacts from the same inputs")
    else:
        stdout = {Path(a).name: s.strip() for a, s in zip(plan["artifacts"], result["stdout"])}
        try:
            problems += checks.check(args.workload, run_dir, plan, stdout, seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"artifact unreadable: {exc!r}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    if args.trace:
        values = dict(setup_layers)
        for name in result["layers"][0]:
            per_round = [r[name] for r in result["layers"]]
            # Counts repeat exactly from round to round; report them as they are.
            values[name] = (per_round[0] if len(set(per_round)) == 1
                            else statistics.median(per_round))
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": setup_s,
                  "wall_s": statistics.median(result["round_s"]),
                  "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"{args.workload}: seed={seed} rounds={rounds} ops/round={ops} "
          f"round_s={[round(t, 3) for t in result['round_s']]} trace={args.trace}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
