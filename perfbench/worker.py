"""Run one workload's operations in rounds, in this process, and report.

Usage: python3 worker.py JOB.json RESULT.json

The job names the operation list (CLI argument lists), the artifacts they
write, the measuring time and whether to trace.  Each round calls
``kdeforge.cli.main`` once per operation, back to back; rounds repeat until
the measuring time has passed, so every run attempts whole rounds.  Only the
operations are timed.  After each round the artifacts are digested, so
run.py can tell that every round wrote the same results.  The process does
nothing but the operations, so its peak RSS is theirs plus the imports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _digest(path: str) -> str:
    """sha256 of an artifact; JSON is compared without its run-time field."""
    p = Path(path)
    if not p.exists():
        return "missing"
    data = p.read_bytes()
    if p.suffix == ".json":
        payload = json.loads(data)
        payload.pop("runtime_seconds", None)
        data = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    from kdeforge import cli

    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.install()

    rounds, codes, digests, layer_rounds = [], [], [], []
    stdout_last = []
    start = time.perf_counter()
    while True:
        buffers = [io.StringIO() for _ in job["ops"]]
        round_codes = []
        t0 = time.perf_counter()
        for argv, buf in zip(job["ops"], buffers):
            with contextlib.redirect_stdout(buf):
                round_codes.append(cli.main(argv))
        rounds.append(time.perf_counter() - t0)
        codes.append(round_codes)
        if tracer is not None:
            layer_rounds.append(tracer.harvest())
        digests.append([_digest(a) for a in job["artifacts"]])
        stdout_last = [b.getvalue() for b in buffers]
        if time.perf_counter() - start >= job["seconds"]:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    Path(sys.argv[2]).write_text(json.dumps({
        "module": cli.__file__,
        "round_s": rounds,
        "codes": codes,
        "digests": digests,
        "stdout": stdout_last,
        "peak_rss_kb": peak_kb,
        "layers": layer_rounds,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
