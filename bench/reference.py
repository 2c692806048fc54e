"""A fixed CPU task that calibrates the host's speed during a benchmark run.

    python3 bench/reference.py

It imports nothing from graphlets, so no change to the program moves its
time; only the host does.  The mix resembles the CLI's own work: a fresh
interpreter importing numpy, small-array numpy calls in a Python loop (as in
the forest's split search), dict and string handling and JSON round trips
(as in trace ingest).  It takes about 0.4 s on a 2-vCPU virtual machine.
"""

import json
import random

import numpy as np


def numpy_part(rng: np.random.Generator, rounds: int) -> float:
    total = 0.0
    for _ in range(rounds):
        vals = rng.random(48)
        y = vals > 0.5
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cum = np.cumsum(y[order])
        cut = np.nonzero(sv[1:] != sv[:-1])[0]
        total += float(cum[-1]) + float(np.argmin(sv[cut] if len(cut) else sv))
    return total


def python_part(rng: random.Random, rounds: int) -> int:
    size = 0
    for i in range(rounds):
        record = {
            "id": f"exec-{i}",
            "operator": rng.choice(["trainer", "transform", "pusher", "evaluator"]),
            "features": [{"name": f"f{j}", "mean": rng.random()} for j in range(12)],
        }
        text = json.dumps(record, sort_keys=True)
        back = json.loads(text)
        names = sorted(f["name"] for f in back["features"])
        size += len(text) + len(names)
    return size


def main() -> None:
    numpy_part(np.random.default_rng(0), 12000)
    python_part(random.Random(0), 3000)


if __name__ == "__main__":
    main()
