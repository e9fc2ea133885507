"""Checks that the host-speed factor (hostspeed.py) does not depend on ywalk
or on the length of an operation.

    python3 perfbench/scalecheck.py [rounds]

Run from the repository root.  Each check runs `rounds` rounds (default
20) of ywalk work and of a control, the reference loop itself:

- inside against outside: the first sample inside a 2.5 s operation (a
  G2 walk at order 20) divided by the one just before it, and the last
  one divided by the one just after it;
- long against short: the scaled time of one operation that makes 20 G2
  walks at order 8 (2 s) divided by the summed scaled times of the same
  20 walks as 20 operations of about 0.1 s.

Ratios near 1 mean that scaled time follows the work, not ywalk's heap or
the way the work is cut into operations.
"""

from __future__ import annotations

import statistics
import sys

import hostspeed
import run

sys.path.insert(0, str(run.SRC))
import ywalk  # noqa: E402

G2_WORD = (1, 2, 1, 2, 1, 2)


def timed(fn) -> hostspeed.Sampler:
    with hostspeed.Sampler() as sampler:
        fn()
    return sampler


def scaled(fn) -> float:
    sampler = timed(fn)
    return sampler.seconds * sampler.factor


def loops(n):
    for _ in range(n):
        hostspeed._loop()


def summary(values) -> str:
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return f"median {med:.3f}, mean {statistics.mean(values):.3f}, quartile spread {(q[2] - q[0]) / med:.3f}"


def main() -> int:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    hostspeed.pin_to_one_cpu()
    g2 = ywalk.builtin_cartan("g2")

    def walk(order):
        ywalk.run_walk(g2, G2_WORD, 1, order)

    inside = {"walk": ([], []), "control": ([], [])}
    for _ in range(rounds):
        for name, fn in (("walk", lambda: walk(20)), ("control", lambda: loops(1000))):
            x = timed(fn).samples
            inside[name][0].append(x[1] / x[0])
            inside[name][1].append(x[-2] / x[-1])
    for name, (first, last) in inside.items():
        print(f"{name:8} first sample inside / before: {summary(first)}")
        print(f"{name:8} last sample inside / after:   {summary(last)}")

    pieces = 20
    work = {"walk": lambda: walk(8), "control": lambda: loops(40)}
    split = {"walk": [], "control": []}
    for _ in range(rounds):
        for name, fn in work.items():
            one = scaled(lambda: [fn() for _ in range(pieces)])
            split[name].append(one / sum(scaled(fn) for _ in range(pieces)))
    for name, ratios in split.items():
        print(f"{name:8} one long op / {pieces} short ops:    {summary(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
