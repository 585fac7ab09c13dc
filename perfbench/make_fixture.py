#!/usr/bin/env python3
"""Regenerate the ``trot_track`` message fixture from the ``trot_mpc`` episode.

    python3 perfbench/make_fixture.py

Runs one ``trot_mpc`` episode with seed 0 and writes its policy messages
to ``perfbench/data/trot_messages.jsonl.gz`` with their SHA-256 next to it.
The fixture is committed so that solver changes never alter the inputs of
the controller workload; regenerate it only on purpose, since every
``trot_track`` figure measured before and after is then incomparable.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"   # before numpy loads

import gzip  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402


def main() -> int:
    wl = workloads.TrotMpc()
    rng = np.random.default_rng([0, 0])
    ep = wl.episode(wl.setup(rng), rng)
    ep.run_checks()
    steps = ep.requests["step"]
    if steps.failed or ep.problems:
        print(f"episode not clean: {dict(steps.failures)} {ep.problems}",
              file=sys.stderr)
        return 1
    text = "".join(msg.to_json() + "\n" for msg in ep.outputs)
    raw = gzip.compress(text.encode(), mtime=0)
    workloads.FIXTURE.write_bytes(raw)
    workloads.FIXTURE_SHA256.write_text(
        f"{hashlib.sha256(raw).hexdigest()}  {workloads.FIXTURE.name}\n")
    print(f"wrote {len(ep.outputs)} messages to {workloads.FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
