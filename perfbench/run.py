"""nettopk benchmark: wall time, memory and results of `nettopk run` seeds.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src`. Set-up makes the input trace from --seed with
`workload.gen_zipf` and `write_trace` in a fresh process, several times,
and reports the median as `setup_s`. Each timed operation is then one
in-process call of `nettopk.cli.main(["run", "--trace", FILE, "--seeds",
S, ...])` for one simulation seed S, repeated until --seconds is spent.
Every operation's CSV row is checked (see `check_row`).

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 untimed and traced calls of the same seed alternate, and the
last line carries the per-layer metrics read from the spans. See
README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = HERE / "pinned.json"

SETUP_REPS = 5  # set-up runs per benchmark run; setup_s is their median
INPUTS_PER_RUN = 4  # distinct (trace, simulation seed) inputs per run, used in turn
MIN_OPS = 3  # untraced operations per run, even past --seconds
MIN_PAIRS = 2  # untraced + traced pairs per traced run
HEADLINE_MIN_RECALL = 0.95  # README guarantee at desk scale

# Every workload is one `nettopk run` command line over a generated trace.
WORKLOADS = {
    "headline": {
        "trace": {"zipf": 1.0, "packets": 2_000_000, "flows": 200_000},
        "run": {"switches": 10, "clusters": 1, "slots": 4096, "k": 128,
                "affinity": 1.0, "drop": 0.0, "order": "fifo", "engine": "auto"},
    },
    "wide-clustered": {
        "trace": {"zipf": 0.8, "packets": 1_000_000, "flows": 100_000},
        "run": {"switches": 100, "clusters": 10, "slots": 1024, "k": 128,
                "affinity": 0.0, "drop": 0.0, "order": "fifo", "engine": "arrays"},
    },
    "lossy-flat": {
        "trace": {"zipf": 1.0, "packets": 200_000, "flows": 20_000},
        "run": {"switches": 10, "clusters": 1, "slots": 1024, "k": 64,
                "affinity": 0.9, "drop": 0.1, "order": "random", "engine": "auto"},
    },
    "lossy-clustered-fifo": {
        "trace": {"zipf": 1.0, "packets": 300_000, "flows": 30_000},
        "run": {"switches": 16, "clusters": 4, "slots": 1024, "k": 64,
                "affinity": 0.9, "drop": 0.05, "order": "fifo", "engine": "auto"},
    },
}
VECTORS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "seed_s": "s",
    "peak_rss_mb": "MiB",
    "recall": "fraction",
    "messages": "count",
    "recirculations": "count",
    "success_rate": "fraction",
}

PER_LAYER_UNITS = {
    "workload.gen_s": "s",
    "workload.write_s": "s",
    "workload.read_s": "s",
    "workload.truth_s": "s",
    "workload.split_s": "s",
    "workload.packets": "count",
    "kernels.ingest_s": "s",
    "kernels.ingest_packets_per_s": "1/s",
    "kernels.recirc_ratio": "fraction",
    "kernels.aggregate_s": "s",
    "kernels.consolidate_s": "s",
    "kernels.replay_s": "s",
    "kernels.messages_per_s": "1/s",
    "precision.ingest_s": "s",
    "precision.packets_per_s": "1/s",
    "precision.recirc_ratio": "fraction",
    "protocol.cycle_s": "s",
    "protocol.cycle_self_s": "s",
    "protocol.messages_per_s": "1/s",
    "protocol.check_s": "s",
    "protocol.snapshot_occupancy": "fraction",
    "protocol.gtopk_occupancy": "fraction",
    "transport.broadcast_s": "s",
    "transport.step_s": "s",
    "transport.steps": "count",
    "transport.events_per_s": "1/s",
    "transport.audit_s": "s",
    "transport.delivered": "count",
    "transport.dropped": "count",
    "transport.retx_ratio": "fraction",
    "cluster.run_s": "s",
    "cluster.self_s": "s",
    "cluster.phase1_messages": "count",
    "cluster.phase2_messages": "count",
    "cluster.phase3_messages": "count",
    "cli.seed_s": "s",
    "cli.self_s": "s",
    "cli.tracing_overhead": "fraction",
}


class ProgramMissing(Exception):
    """The checkout holds no nettopk sources to benchmark."""


def load_program():
    """Import nettopk from this checkout's src; returns (cli, _kernels, transport)."""
    package = SRC / "nettopk"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no nettopk sources at {package}")
    sys.path.insert(0, str(SRC))
    import nettopk
    from nettopk import _kernels, cli, transport

    if Path(nettopk.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported nettopk from {nettopk.__file__}, not {package}")
    return cli, _kernels, transport


def input_seeds(seed: int) -> list[int]:
    """Seeds of a run's inputs; input j is the trace gen_zipf makes from
    input_seeds(seed)[j], simulated with that same number as its seed."""
    return [1000 * seed + 1 + j for j in range(INPUTS_PER_RUN)]


def run_argv(spec: dict, trace_path, seed: int, out) -> list[str]:
    r = spec["run"]
    return [
        "run", "--trace", str(trace_path), "--seeds", str(seed),
        "--switches", str(r["switches"]), "--clusters", str(r["clusters"]),
        "--vectors", str(VECTORS), "--slots", str(r["slots"]), "--k", str(r["k"]),
        "--affinity", str(r["affinity"]), "--drop", str(r["drop"]),
        "--order", r["order"], "--engine", r["engine"], "--out", str(out),
    ]


# Output checks.


def check_row(csv_header: str, workload: str, seed: int, sim: int, text: str, pinned: dict):
    """Check one `nettopk run` CSV report; returns (row dict or None, problems)."""
    spec = WORKLOADS[workload]
    lines = text.splitlines()
    if len(lines) != 3 or lines[0] != csv_header or not lines[2].startswith("AVG,"):
        return None, [f"malformed report: {lines[:3]!r}"]
    columns, fields = csv_header.split(","), lines[1].split(",")
    if len(fields) != len(columns):
        return None, [f"malformed row: {lines[1]!r}"]
    row = dict(zip(columns, fields))
    r, t = spec["run"], spec["trace"]
    expect = {
        "seed": str(sim), "n": str(r["switches"]), "clusters": str(r["clusters"]),
        "d": str(VECTORS), "s": str(r["slots"]), "k": str(r["k"]), "zipf": "",
        "packets": str(t["packets"]), "flows": str(t["flows"]),
        "affinity": f"{r['affinity']:g}", "drop": f"{r['drop']:g}",
        # README: four 8-byte-entry tables plus one 4-byte counter table
        "memory_bytes": str(36 * VECTORS * r["slots"]),
    }
    problems = [f"{key}={row[key]!r}, expected {want!r}" for key, want in expect.items() if row[key] != want]
    try:
        recall = float(row["recall"])
        messages = int(row["messages"])
        recirc = int(row["recirculations"])
    except ValueError:
        return None, problems + [f"non-numeric result in {lines[1]!r}"]
    if not 0.0 <= recall <= 1.0:
        problems.append(f"recall {recall} outside [0, 1]")
    if messages <= 0 or recirc <= 0:
        problems.append(f"messages {messages} and recirculations {recirc} must be positive")
    if workload == "headline" and recall < HEADLINE_MIN_RECALL:
        problems.append(f"headline recall {recall} below {HEADLINE_MIN_RECALL}")
    if seed == pinned["seed"]:
        want = pinned["rows"].get(workload, {}).get(str(sim))
        if want is None:
            problems.append(f"no pinned row for simulation seed {sim}")
        else:
            problems += [
                f"{key}={row[key]}, pinned {value}" for key, value in want.items() if row[key] != value
            ]
    result = {"recall": recall, "messages": messages, "recirculations": recirc}
    return (None if problems else result), problems


# Set-up.


def make_traces(spec: dict, seeds: list[int], prefix: str) -> tuple[float, dict]:
    """Run the set-up process once; returns (wall seconds, its own timings)."""
    t = spec["trace"]
    cmd = [
        sys.executable, str(HERE / "make_trace.py"), "--zipf", str(t["zipf"]),
        "--packets", str(t["packets"]), "--flows", str(t["flows"]),
        "--seeds", ",".join(map(str, seeds)), "--prefix", prefix,
    ]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


# Environment record.


def environment(cli, kernels, spec: dict, trace_path) -> dict:
    r = spec["run"]
    config = cli.ExperimentConfig(
        n_switches=r["switches"], clusters=r["clusters"], d=VECTORS, s=r["slots"], k=r["k"],
        seeds=(1,), trace_path=str(trace_path), affinity=r["affinity"],
        drop_probability=r["drop"], engine=r["engine"],
    )
    digest = hashlib.sha256()
    for path in sorted((SRC / "nettopk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or "unavailable"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unavailable (git failed)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "have_numba": bool(kernels.HAVE_NUMBA),
        "kernel_backend": "numba" if kernels.HAVE_NUMBA else "pure-python",
        "engine": cli._choose_engine(config),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# Per-layer metrics of one traced call.


def trace_targets(cli, kernels, transport) -> list[tuple]:
    """(owner, attribute, span name, keep args and result) for the traced run."""
    net = transport.Network
    return [
        (cli, "read_trace", "workload.read", True),
        (cli, "exact_topk", "workload.truth", False),
        (cli, "split_stream", "workload.split", False),
        (cli, "ingest", "precision.ingest", True),
        (cli, "run_cycle", "protocol.cycle", True),
        (cli, "run_cycle_arrays", "protocol.cycle", True),
        (cli, "check_cycle_invariants", "protocol.check", False),
        (cli, "check_invariants_arrays", "protocol.check", False),
        (cli, "run_clustered", "cluster.run", True),
        (cli, "run_clustered_arrays", "cluster.run", True),
        (kernels, "ingest_arrays", "kernels.ingest", True),
        (kernels, "aggregate_arrays", "kernels.aggregate", True),
        (kernels, "consolidate_arrays", "kernels.consolidate", True),
        (kernels, "replay_arrays", "kernels.replay", True),
        (net, "broadcast", "transport.broadcast", True),
        (net, "step", "transport.step", False),
        (net, "audit_exactly_once", "transport.audit", False),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tables_fraction(tables) -> float:
    cfg = tables[0].config
    return sum(t.occupancy() for t in tables) / (len(tables) * cfg.d * cfg.s)


def _array_fraction(a) -> float:
    return int(numpy.count_nonzero(a)) / a.size


def layer_metrics(rec: tracing.Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced call, from its spans and kept calls."""
    totals = rec.totals()

    def dur(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def self_time(name):
        return totals.get(name, (0.0, 0.0, 0))[1]

    packets = 0
    p_packets = 0
    states = {}
    k_packets = k_recirc = k_messages = 0
    proto_messages = 0
    snap_occ: list[float] = []
    g_occ: list[float] = []
    phases = [0, 0, 0]
    networks = {}
    for name, args, result in rec.calls:
        if name == "workload.read":
            packets = len(result.packets)
        elif name == "precision.ingest":
            p_packets += len(args[1])
            states[id(args[0])] = args[0]
        elif name == "kernels.ingest":
            k_packets += len(args[4])
            k_recirc += int(result[1])
        elif name in ("kernels.aggregate", "kernels.consolidate", "kernels.replay"):
            k_messages += int(result)
        elif name == "protocol.cycle":
            proto_messages += result.delivered
            if hasattr(result, "g_ids"):
                snap_occ.append(_array_fraction(result.snap_ids))
                g_occ.append(_array_fraction(result.g_ids))
            else:
                snap_occ.append(_tables_fraction([sw.snapshot for sw in args[0]]))
                g_occ.append(_tables_fraction([sw.g_topk for sw in args[0]]))
        elif name == "cluster.run":
            if hasattr(result, "phase_delivered"):
                counts = result.phase_delivered
                snap_occ.append(_array_fraction(args[0]))
                g_occ.append(_array_fraction(result.query_ids))
            else:
                counts = (result.phase1.delivered, result.phase2.delivered, result.phase3.delivered)
                snap_occ.append(_tables_fraction([sw.l_topk.table for sw in args[0]]))
                g_occ.append(_tables_fraction([sw.query for sw in args[0]]))
            phases = [a + b for a, b in zip(phases, counts)]
        elif name == "transport.broadcast":
            networks[id(args[0])] = args[0]
    p_recirc = sum(st.recirculations for st in states.values())
    delivered = sum(net.delivered_count for net in networks.values())
    dropped = sum(net.dropped_count for net in networks.values())
    merge_s = dur("kernels.aggregate") + dur("kernels.consolidate") + dur("kernels.replay")
    return {
        "workload.read_s": dur("workload.read"),
        "workload.truth_s": dur("workload.truth"),
        "workload.split_s": dur("workload.split"),
        "workload.packets": packets,
        "kernels.ingest_s": dur("kernels.ingest"),
        "kernels.ingest_packets_per_s": _ratio(k_packets, dur("kernels.ingest")),
        "kernels.recirc_ratio": _ratio(k_recirc, k_packets),
        "kernels.aggregate_s": dur("kernels.aggregate"),
        "kernels.consolidate_s": dur("kernels.consolidate"),
        "kernels.replay_s": dur("kernels.replay"),
        "kernels.messages_per_s": _ratio(k_messages, merge_s),
        "precision.ingest_s": dur("precision.ingest"),
        "precision.packets_per_s": _ratio(p_packets, dur("precision.ingest")),
        "precision.recirc_ratio": _ratio(p_recirc, p_packets),
        "protocol.cycle_s": dur("protocol.cycle"),
        "protocol.cycle_self_s": self_time("protocol.cycle"),
        "protocol.messages_per_s": _ratio(proto_messages, dur("protocol.cycle")),
        "protocol.check_s": dur("protocol.check"),
        "protocol.snapshot_occupancy": statistics.fmean(snap_occ) if snap_occ else 0.0,
        "protocol.gtopk_occupancy": statistics.fmean(g_occ) if g_occ else 0.0,
        "transport.broadcast_s": dur("transport.broadcast"),
        "transport.step_s": dur("transport.step"),
        "transport.steps": totals.get("transport.step", (0.0, 0.0, 0))[2],
        "transport.events_per_s": _ratio(delivered + dropped, dur("transport.step")),
        "transport.audit_s": dur("transport.audit"),
        "transport.delivered": delivered,
        "transport.dropped": dropped,
        "transport.retx_ratio": _ratio(dropped, delivered),
        "cluster.run_s": dur("cluster.run"),
        "cluster.self_s": self_time("cluster.run"),
        "cluster.phase1_messages": phases[0],
        "cluster.phase2_messages": phases[1],
        "cluster.phase3_messages": phases[2],
        "cli.seed_s": dur("cli.seed"),
        "cli.self_s": self_time("cli.seed"),
    }


# The run.


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, program) -> None:
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seeds = input_seeds(seed)
        self.cli, self.kernels, self.transport = program
        with open(PINNED) as fh:
            self.pinned = json.load(fh)
        self.tag = f"{workload}-{seed}-{os.getpid()}"
        self.traces: list[Path] = []
        self.attempted = 0
        self.failed = 0
        self.rows: list[dict] = []  # checked rows of the first MIN_OPS operations

    def op(self, i: int, recorder: tracing.Recorder | None = None) -> float | None:
        """The i-th checked `nettopk run` call; returns its wall time, None on failure."""
        j = i % INPUTS_PER_RUN
        sim = self.seeds[j]
        out = WORK / f"{self.tag}-{self.attempted}.csv"
        argv = run_argv(self.spec, self.traces[j], sim, out)
        self.attempted += 1
        problems = []
        sink = io.StringIO()
        gc.collect()  # the previous operation's garbage is not this one's cost
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if recorder is None:
                    t0 = perf_counter()
                    rc = self.cli.main(argv)
                    elapsed = perf_counter() - t0
                else:
                    targets = trace_targets(self.cli, self.kernels, self.transport)
                    with tracing.instrumented(recorder, targets), recorder.span("cli.seed") as top:
                        rc = self.cli.main(argv)
                    elapsed = recorder.end[top] - recorder.start[top]
            if rc != 0:
                problems.append(f"exit code {rc}: {sink.getvalue().strip()}")
            else:
                row, problems = check_row(
                    self.cli.CSV_HEADER, self.workload, self.seed, sim, out.read_text(), self.pinned
                )
                if row is not None and i < MIN_OPS and recorder is None:
                    self.rows.append(row)
        except Exception:  # a failed operation is counted, never skipped
            problems.append(traceback.format_exc())
        finally:
            out.unlink(missing_ok=True)
        if problems:
            self.failed += 1
            print(f"FAILED {self.workload} seed {sim}: {'; '.join(problems)}", file=sys.stderr)
            return None
        return elapsed

    def setup(self) -> tuple[list[float], list[dict]]:
        """Make the run's traces SETUP_REPS times, each time to fresh files."""
        walls, inner = [], []
        for rep in range(SETUP_REPS):
            self.remove_traces()
            prefix = str(WORK / f"{self.tag}-{rep}-")
            wall, times = make_traces(self.spec, self.seeds, prefix)
            walls.append(wall)
            inner.append(times)
            self.traces = [Path(f"{prefix}{n}.trace") for n in self.seeds]
        return walls, inner

    def remove_traces(self) -> None:
        for path in self.traces:
            path.unlink(missing_ok=True)
        self.traces = []

    def timed(self, seconds: float) -> list[float]:
        """Untraced operations until the next would end past `seconds`."""
        times = []
        start = perf_counter()
        i = 0
        while True:
            op_start = perf_counter()
            dt = self.op(i)
            if dt is not None:
                times.append(dt)
            i += 1
            now = perf_counter()
            if i >= MIN_OPS and now - start + (now - op_start) > seconds:
                return times

    def traced(self, seconds: float) -> tuple[list[float], list[dict], tracing.Recorder | None]:
        """Pairs of an untraced and a traced call on the same input."""
        plain, layers = [], []
        last = None
        start = perf_counter()
        i = 0
        while True:
            pair_start = perf_counter()
            dt = self.op(i)
            rec = tracing.Recorder()
            if self.op(i, rec) is not None and dt is not None:
                plain.append(dt)
                layers.append(layer_metrics(rec))
                last = rec
            i += 1
            now = perf_counter()
            if i >= MIN_PAIRS and now - start + (now - pair_start) > seconds:
                return plain, layers, last


def end_to_end(bench: Bench, setup_walls: list[float], times: list[float]) -> dict[str, float]:
    rows = bench.rows or [{"recall": 0.0, "messages": 0, "recirculations": 0}]
    return {
        "setup_s": statistics.median(setup_walls),
        "seed_s": statistics.median(times) if times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # deterministic: means over the first MIN_OPS operations, which every run makes
        "recall": statistics.fmean(r["recall"] for r in rows),
        "messages": statistics.fmean(r["messages"] for r in rows),
        "recirculations": statistics.fmean(r["recirculations"] for r in rows),
        "success_rate": 1.0 - bench.failed / bench.attempted,
    }


def per_layer(layers: list[dict], setup_inner: list[dict], plain: list[float]) -> dict[str, float]:
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]} if layers else {}
    values["workload.gen_s"] = statistics.median(x for t in setup_inner for x in t["gen_s"])
    values["workload.write_s"] = statistics.median(x for t in setup_inner for x in t["write_s"])
    if layers and plain:
        values["cli.tracing_overhead"] = values["cli.seed_s"] / statistics.median(plain) - 1.0
    # a layer the workload does not run reads 0
    return {name: values.get(name, 0.0) for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    try:
        program = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed, program)
    try:
        setup_walls, setup_inner = bench.setup()
        env = environment(bench.cli, bench.kernels, bench.spec, bench.traces[0])
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        if not env["have_numba"]:
            print("note: numba is not installed; the arrays engine runs its pure-Python kernels",
                  file=sys.stderr)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
                  "setup_walls_s": setup_walls, "setup_inner": setup_inner}
        if args.trace == 0:
            times = bench.timed(args.seconds)
            values, units = end_to_end(bench, setup_walls, times), END_TO_END_UNITS
            record["seed_times_s"] = times
            if len(times) >= 2:
                q1, _, q3 = statistics.quantiles(times, n=4)
                print(f"seed_s over {len(times)} seeds: median {values['seed_s']:.4f} s, "
                      f"quartiles {q1:.4f}..{q3:.4f} s")
        else:
            plain, layers, last = bench.traced(args.seconds)
            values, units = per_layer(layers, setup_inner, plain), PER_LAYER_UNITS
            record["layers_per_seed"] = layers
            record["untraced_seed_s"] = plain
            if last is not None:
                last.write_csv(WORK / f"spans-{args.workload}.csv")
    finally:
        bench.remove_traces()

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    correct = bench.failed == 0
    record.update(correct=correct, attempted=bench.attempted, failed=bench.failed, metrics=metrics)
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
