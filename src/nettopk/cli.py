"""Experiment runner and command-line interface.

Wires workload generation, per-switch local top-k buildup, the cycle
engines, and metric computation into seeded, reproducible experiments
that emit CSV rows (one per seed plus an AVG row).

Two interchangeable engines exist: the object model with a simulated
transport (required for loss and delivery-order studies) and the lossless
bulk engine in _kernels. Both produce identical tables and message counts
for identical configs.

A recorded trace (--trace) is read once per experiment and shared by
every seed.

perfbench/run.py calls main in process with the run flags --trace,
--seeds, --switches, --clusters, --vectors, --slots, --k, --affinity,
--drop, --order, --engine and --out, and times it by rebinding names in
this module, which fixes these: read_trace, exact_topk, split_stream,
ingest, run_cycle, run_cycle_arrays, check_cycle_invariants,
check_invariants_arrays, run_clustered and run_clustered_arrays are module
attributes, called as globals here. ingest takes the switch's
LocalTopKState first; run_cycle and run_clustered take the switches first,
run_clustered_arrays the l_ids array; their results keep the fields the
benchmark reads (delivered, phase1..phase3, and those _kernels lists).
CSV_HEADER, _choose_engine and the ExperimentConfig fields n_switches,
clusters, d, s, k, seeds, trace_path, affinity, drop_probability and
engine keep their names.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import dataclass
from statistics import fmean

import numpy as np

from . import _kernels
from ._kernels import check_invariants_arrays, run_clustered_arrays, run_cycle_arrays
from .cluster import partition, run_clustered
from .flowtable import TableConfig, memory_bytes
from .precision import derive_seed, ingest
from .protocol import InvariantError, SwitchState, check_cycle_invariants, run_cycle
from .transport import DeliveryOrder, Network, NetworkConfig
from .workload import SplitPlan, Trace, exact_topk, gen_zipf, read_trace, split_stream, write_trace

CSV_HEADER = "seed,n,clusters,d,s,k,zipf,packets,flows,affinity,drop,recall,messages,memory_bytes,recirculations"


def recall_at_k(reported_ids, truth, k: int) -> float:
    """Fraction of the true top flows present among the reported IDs."""
    if not truth:
        return 1.0
    reported = set(reported_ids)
    hits = sum(1 for e in truth if e.id in reported)
    return hits / min(k, len(truth))


def node_memory_bytes(d: int, s: int) -> int:
    """Per-switch memory: four full (4+4)-byte tables plus a counter-only one."""
    cfg = TableConfig(d=d, s=s, seeds=(0,) * d)
    return 4 * memory_bytes(cfg, 4, 4) + memory_bytes(cfg, 0, 4)


@dataclass(frozen=True)
class ExperimentConfig:
    n_switches: int
    d: int
    s: int
    k: int
    seeds: tuple[int, ...]
    clusters: int = 1
    zipf_a: float | None = None
    num_packets: int = 0
    num_flows: int = 0
    trace_path: str | None = None
    affinity: float = 1.0
    drop_probability: float = 0.0
    delivery_order: DeliveryOrder = DeliveryOrder.FIFO_PER_PAIR
    cycles: int = 1
    include_drops: bool = False
    engine: str = "auto"  # auto | reference | arrays

    def __post_init__(self) -> None:
        # the validators of the objects a run builds from these fields
        TableConfig(d=self.d, s=self.s, seeds=(0,) * self.d)
        NetworkConfig(n=self.n_switches, drop_probability=self.drop_probability)
        SplitPlan(k=self.k, n_switches=self.n_switches, affinity=self.affinity, seed=0)
        if not 1 <= self.k <= self.d * self.s:
            raise ValueError("k must be in [1, d*s]")
        if (self.zipf_a is None) == (self.trace_path is None):
            raise ValueError("exactly one of zipf_a or trace_path must be set")
        if self.zipf_a is not None and (self.num_packets < 1 or self.num_flows < 1):
            raise ValueError("zipf traces need num_packets and num_flows")
        if not 1 <= self.clusters <= self.n_switches:
            raise ValueError("clusters must be in [1, n_switches]")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        if self.engine not in ("auto", "reference", "arrays"):
            raise ValueError("engine must be auto, reference, or arrays")
        if self.engine == "arrays" and self.drop_probability > 0.0:
            raise ValueError("the arrays engine is lossless only")


@dataclass
class SeedResult:
    seed: int
    recall: float
    messages: int
    memory_bytes: int
    recirculations: int
    delivered: int
    dropped: int


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[SeedResult]
    num_packets: int
    num_flows: int

    @property
    def avg_recall(self) -> float:
        return fmean(r.recall for r in self.rows)

    @property
    def avg_messages(self) -> float:
        return fmean(r.messages for r in self.rows)

    def to_csv(self) -> str:
        cfg = self.config
        zipf = "" if cfg.zipf_a is None else f"{cfg.zipf_a:g}"
        fixed = (
            f"{cfg.n_switches},{cfg.clusters},{cfg.d},{cfg.s},{cfg.k},{zipf},"
            f"{self.num_packets},{self.num_flows},{cfg.affinity:g},{cfg.drop_probability:g}"
        )
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.seed},{fixed},{r.recall:.6f},{r.messages},{r.memory_bytes},{r.recirculations}"
            )
        avg_recirc = fmean(r.recirculations for r in self.rows)
        lines.append(
            f"AVG,{fixed},{self.avg_recall:.6f},{self.avg_messages:.2f},"
            f"{self.rows[0].memory_bytes},{avg_recirc:.2f}"
        )
        return "\n".join(lines) + "\n"


def _choose_engine(config: ExperimentConfig) -> str:
    if config.engine != "auto":
        return config.engine
    return "reference" if config.drop_probability > 0.0 else "arrays"


def _table_seeds(seed: int, d: int) -> tuple[int, ...]:
    return tuple(derive_seed(seed, 0x5EED0 + i) & 0xFFFFFFFF for i in range(d))


def load_trace(config: ExperimentConfig, seed: int) -> Trace:
    if config.trace_path is not None:
        return read_trace(config.trace_path)
    return gen_zipf(config.zipf_a, config.num_packets, config.num_flows, derive_seed(seed, 10))


def run_on_streams(config: ExperimentConfig, seed: int, streams, truth) -> SeedResult:
    """Simulate one seed on pre-split per-switch streams."""
    engine = _choose_engine(config)
    n, d, s = config.n_switches, config.d, config.s
    tcfg = TableConfig(d=d, s=s, seeds=_table_seeds(seed, d))
    chunks = [np.array_split(st, config.cycles) for st in streams]
    plan = partition(n, config.clusters, derive_seed(seed, 12)) if config.clusters > 1 else None
    delivered = 0
    dropped = 0
    recirc = 0

    if engine == "reference":
        switches = [SwitchState(i, tcfg, derive_seed(seed, 0x100 + i)) for i in range(n)]
        for cyc in range(config.cycles):
            for i, sw in enumerate(switches):
                ingest(sw.l_topk, chunks[i][cyc])
            net_config = NetworkConfig(
                n=n,
                drop_probability=config.drop_probability,
                delivery_order=config.delivery_order,
                seed=derive_seed(seed, 0x200 + cyc),
            )
            if plan is None:
                net = Network(net_config)
                stats = run_cycle(switches, net)
                net.audit_exactly_once()
                check_cycle_invariants(switches)
            else:
                stats = run_clustered(switches, plan, net_config)
            delivered += stats.delivered
            dropped += stats.dropped
        recirc = sum(sw.l_topk.recirculations for sw in switches)
        reported = [e.id for e in switches[0].query.entries()]
    else:
        l_ids = np.zeros((n, d, s), dtype=np.uint64)
        l_counts = np.zeros((n, d, s), dtype=np.uint64)
        rng_states = [derive_seed(seed, 0x100 + i) for i in range(n)]
        for cyc in range(config.cycles):
            for i in range(n):
                rng_states[i], rc = _kernels.ingest_arrays(
                    l_ids[i], l_counts[i], tcfg, rng_states[i], chunks[i][cyc]
                )
                recirc += rc
            if plan is None:
                res = run_cycle_arrays(l_ids, l_counts, tcfg)
                check_invariants_arrays(res, tcfg)
                delivered += res.delivered
                query_ids = res.g_ids
            else:
                cres = run_clustered_arrays(l_ids, l_counts, tcfg, plan)
                delivered += cres.delivered
                query_ids = cres.query_ids
        reported = [int(x) for x in query_ids[0][query_ids[0] != 0]]

    messages = delivered + dropped if config.include_drops else delivered
    return SeedResult(
        seed=seed,
        recall=recall_at_k(reported, truth, config.k),
        messages=messages,
        memory_bytes=node_memory_bytes(d, s),
        recirculations=recirc,
        delivered=delivered,
        dropped=dropped,
    )


def run_seed(config: ExperimentConfig, seed: int, trace: Trace | None = None) -> SeedResult:
    """Simulate one seed; trace, when given, replaces the one the config names."""
    if trace is None:
        trace = load_trace(config, seed)
    truth = exact_topk(trace, config.k)
    plan = SplitPlan(
        k=config.k, n_switches=config.n_switches, affinity=config.affinity, seed=derive_seed(seed, 11)
    )
    streams = split_stream(trace, plan)
    return run_on_streams(config, seed, streams, truth)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every seed and collect per-seed plus averaged metrics."""
    if config.trace_path is not None:
        trace = read_trace(config.trace_path)
        num_packets, num_flows = len(trace.packets), trace.num_flows
    else:
        trace = None
        num_packets, num_flows = config.num_packets, config.num_flows
    rows = [run_seed(config, seed, trace) for seed in config.seeds]
    return ExperimentReport(config=config, rows=rows, num_packets=num_packets, num_flows=num_flows)


# Command line.


def _parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x != "")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nettopk", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a simulation and write a CSV report")
    runp.add_argument("--switches", type=int, required=True)
    runp.add_argument("--clusters", type=int, default=1)
    runp.add_argument("--vectors", type=int, default=2)
    runp.add_argument("--slots", type=int, default=4096)
    runp.add_argument("--k", type=int, default=128)
    runp.add_argument("--zipf", type=float, default=None)
    runp.add_argument("--packets", type=int, default=0)
    runp.add_argument("--flows", type=int, default=0)
    runp.add_argument("--trace", default=None)
    runp.add_argument("--affinity", type=float, default=1.0)
    runp.add_argument("--drop", type=float, default=0.0)
    runp.add_argument("--seeds", type=_parse_seeds, default=(1,))
    runp.add_argument("--cycles", type=int, default=1)
    runp.add_argument("--order", choices=["fifo", "random"], default="fifo")
    runp.add_argument("--include-drops", action="store_true")
    runp.add_argument("--engine", choices=["auto", "reference", "arrays"], default="auto")
    runp.add_argument("--out", required=True)

    genp = sub.add_parser("gen-trace", help="synthesize a Zipfian binary trace")
    genp.add_argument("--zipf", type=float, required=True)
    genp.add_argument("--packets", type=int, required=True)
    genp.add_argument("--flows", type=int, required=True)
    genp.add_argument("--seed", type=int, required=True)
    genp.add_argument("--out", required=True)

    verp = sub.add_parser("verify", help="run the invariant suite on a small network")
    verp.add_argument("--trace", required=True)
    return p


def _cmd_run(args) -> int:
    config = ExperimentConfig(
        n_switches=args.switches,
        clusters=args.clusters,
        d=args.vectors,
        s=args.slots,
        k=args.k,
        zipf_a=args.zipf,
        num_packets=args.packets,
        num_flows=args.flows,
        trace_path=args.trace,
        affinity=args.affinity,
        drop_probability=args.drop,
        delivery_order=DeliveryOrder.RANDOM if args.order == "random" else DeliveryOrder.FIFO_PER_PAIR,
        seeds=args.seeds,
        cycles=args.cycles,
        include_drops=args.include_drops,
        engine=args.engine,
    )
    report = run_experiment(config)
    try:
        with open(args.out, "w") as fh:
            fh.write(report.to_csv())
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}: avg recall {report.avg_recall:.4f} over {len(report.rows)} seeds")
    return 0


def _cmd_gen_trace(args) -> int:
    trace = gen_zipf(args.zipf, args.packets, args.flows, args.seed)
    try:
        write_trace(trace, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}: {len(trace.packets)} packets, {trace.num_flows} flows")
    return 0


def _cmd_verify(args) -> int:
    try:
        trace = read_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 1
    ok = True
    for drop in (0.0, 0.2):
        config = ExperimentConfig(
            n_switches=5,
            d=2,
            s=64,
            k=32,
            seeds=(1, 2, 3),
            trace_path=args.trace,
            drop_probability=drop,
            delivery_order=DeliveryOrder.RANDOM,
            engine="reference",
        )
        try:
            report = run_experiment(config)
        except (InvariantError, AssertionError) as exc:
            print(f"invariant violation at drop={drop}: {exc}", file=sys.stderr)
            ok = False
            continue
        print(f"drop={drop}: invariants hold over {len(report.rows)} seeds "
              f"({len(trace.packets)} packets)")
    return 0 if ok else 1


def _unmap_large_blocks() -> None:
    """Fix glibc's mmap threshold at its initial 128 KiB.

    glibc raises the threshold to the size of each mmapped block freed, so
    once a trace-length array is freed, later ones come from the brk heap,
    where a small live block above them keeps their pages resident after
    they are freed. Which way a run went moved with its directory name, and
    moved its peak RSS by 13 MiB. Other C libraries lack mallopt or ignore it.
    """
    try:
        ctypes.CDLL(None).mallopt(-3, 1 << 17)  # M_MMAP_THRESHOLD
    except (AttributeError, OSError, TypeError):
        pass


def main(argv=None) -> int:
    _unmap_large_blocks()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gen-trace":
            return _cmd_gen_trace(args)
        return _cmd_verify(args)
    except (InvariantError,) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
