"""Benchmark the compiled kernel against its pure-Python twin.

Both implementations are imported directly and run on the same generated
instances; results are checked for equality before timings are reported; a
mismatch is printed and the script exits 1.

Usage: python benchmarks/bench_kernel.py [--sizes 1000,10000,100000] [--repeat 3]
"""
from __future__ import annotations

import argparse
import sys
import time

from widthspan import _kernel_py
from widthspan.arrangement import LinearArrangement, edge_spreads, split_heights
from widthspan.graph import generate

try:
    from widthspan import _kernel
except ImportError:
    _kernel = None


def make_instance(n: int, seed: int):
    g, order = generate("random_bandwidth", n, seed=seed, b=4, p=0.7)
    a = LinearArrangement.from_order(order)
    eu = [u - 1 for u, _ in g.edges]
    ev = [v - 1 for _, v in g.edges]
    return g.n, eu, ev, split_heights(g, a), edge_spreads(g, a)


def bench(fn, args, repeat: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1000,10000,100000")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"{'n':>8} {'m':>8} {'pure (s)':>10} {'compiled (s)':>13} {'speedup':>8}")
    for n in sizes:
        inst = make_instance(n, args.seed)
        t_py, r_py = bench(_kernel_py.tree_stretch, inst, args.repeat)
        if _kernel is None:
            print(f"{inst[0]:>8} {len(inst[1]):>8} {t_py:>10.4f} {'-':>13} {'-':>8}")
            continue
        t_c, r_c = bench(_kernel.tree_stretch, inst, args.repeat)
        for label, got, want in (("in_tree", r_c[0], r_py[0]), ("stretch", r_c[1], r_py[1])):
            diff = [i for i, (x, y) in enumerate(zip(got, want)) if x != y]
            if diff or len(got) != len(want):
                i = diff[0] if diff else min(len(got), len(want))
                print(f"kernel mismatch at n={n}: {label}[{i}] compiled {list(got[i:i + 1])}, "
                      f"pure {list(want[i:i + 1])}", file=sys.stderr)
                return 1
        print(f"{inst[0]:>8} {len(inst[1]):>8} {t_py:>10.4f} {t_c:>13.4f} {t_py / t_c:>7.1f}x")
    if _kernel is None:
        print("compiled kernel not available; pure-Python timings only")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
