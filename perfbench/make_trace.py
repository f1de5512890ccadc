"""Set-up step of one benchmark run, as its own process.

Imports nettopk from the checkout's `src`, then for each seed synthesizes
a Zipf trace with `workload.gen_zipf` and writes it with
`workload.write_trace` to `<prefix><seed>.trace`. The parent times the
whole process (interpreter start, import, synthesis, writes); this process
prints its own synthesis and write times as one JSON line.

    python3 perfbench/make_trace.py --zipf 1.0 --packets 200000 \
        --flows 20000 --seeds 3001,3002 --prefix work/t-
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--zipf", type=float, required=True)
    p.add_argument("--packets", type=int, required=True)
    p.add_argument("--flows", type=int, required=True)
    p.add_argument("--seeds", required=True, help="comma-separated trace seeds")
    p.add_argument("--prefix", required=True)
    args = p.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import nettopk  # noqa: F401  (the import is part of set-up)
    from nettopk.workload import gen_zipf, write_trace

    gen_s, write_s = [], []
    for seed in (int(x) for x in args.seeds.split(",")):
        t0 = perf_counter()
        trace = gen_zipf(args.zipf, args.packets, args.flows, seed)
        t1 = perf_counter()
        write_trace(trace, f"{args.prefix}{seed}.trace")
        t2 = perf_counter()
        gen_s.append(t1 - t0)
        write_s.append(t2 - t1)
    print(json.dumps({"gen_s": gen_s, "write_s": write_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
