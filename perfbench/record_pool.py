#!/usr/bin/env python3
"""Regenerate perfbench/pool.json: the program seeds of the builder workloads
and the recorded output digests of construct-n384.

    python3 perfbench/record_pool.py

A seed enters a pool when the builder's first binomial sample for it lies
within 1% of the expected sample size p * C(n, r); pools list the first
``POOL_SIZE`` such seeds in increasing order, with no other filter.  The
workload seed S picks ``pool[S % POOL_SIZE]``, so changing the size would
silently remap every workload seed to other inputs.  Every
construct-n384 pool seed is then built once through ``sparsehg construct``
and its .hg and trace SHA-256 recorded, so the benchmark can hold later
versions to byte-identical output.  Takes about 15 s per construct-n384 seed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from sparsehg import builder, cli  # noqa: E402
from workloads import POOL_FILE, call_cli, construct_argv, sha256_file  # noqa: E402

BAND = 0.01
POOL_SIZE = 32
# (r, e, v, n) the builder receives: `construct --r 3 --e 3 --v 6 --n 384`
# and `cbc construct --r 3 --e 6 --n 16`, which builds with v = e - 1
BUILDS = {"construct-n384": (3, 3, 6, 384), "cbc-e6": (3, 6, 5, 16)}


def pool(r: int, e: int, v: int, n: int) -> tuple[float, list[dict]]:
    expected = builder.plan(r, e, v, n).p * comb(n, r)
    seeds = []
    seed = 0
    while len(seeds) < POOL_SIZE:
        x = builder.sample(builder.plan(r, e, v, n, seed=seed)).m
        if abs(x - expected) <= BAND * expected:
            seeds.append({"seed": seed, "sample": x})
        seed += 1
    return expected, seeds


def record_construct(n: int, seed: int, workdir: Path) -> dict:
    hg = workdir / f"n{n}-seed{seed}.hg"
    rc, _ = call_cli(cli, construct_argv(n, seed, hg))
    if rc != 0:
        raise SystemExit(f"construct n={n} seed={seed} exited {rc}")
    trace = Path(str(hg).removesuffix(".hg") + ".trace.json")
    return {
        "edges": int(hg.read_text().split()[1]),
        "digests": {"hg": sha256_file(hg), "trace": sha256_file(trace)},
    }


def main() -> int:
    out: dict = {"band": BAND}
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=ROOT / ".perfbench_work"))
    try:
        for name, (r, e, v, n) in BUILDS.items():
            expected, seeds = pool(r, e, v, n)
            out[name] = {"builder_args": [r, e, v, n], "expected_sample": expected, "seeds": seeds}
        for entry in out["construct-n384"]["seeds"]:
            entry.update(record_construct(384, entry["seed"], workdir))
            print(f"construct-n384 seed {entry['seed']}: {entry['edges']} edges", flush=True)
        out["selftest"] = {"construct-n128-seed0": record_construct(128, 0, workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    POOL_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
