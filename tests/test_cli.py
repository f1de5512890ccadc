"""Experiment runner, metrics, CSV reports, and the command line."""

import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nettopk import cli
from nettopk.cli import (
    CSV_HEADER,
    TABLE_BYTES_PER_SLOT,
    ExperimentConfig,
    cycle_piece,
    main,
    node_memory_bytes,
    recall_at_k,
    run_experiment,
    run_seed,
)
from nettopk.flowtable import FlowEntry
from nettopk.protocol import MAX_SWITCHES
from nettopk.transport import DeliveryOrder
from nettopk.workload import ZIPF_BYTES_PER_FLOW, ZIPF_BYTES_PER_PACKET, gen_zipf, read_trace, write_trace

ZIPF_SMALL = dict(zipf_a=1.0, num_packets=5000, num_flows=300)


def small_config(**kw):
    base = dict(n_switches=4, d=2, s=64, k=16, seeds=(1,), **ZIPF_SMALL)
    base.update(kw)
    return ExperimentConfig(**base)


def test_recall_at_k():
    truth = [FlowEntry(1, 10), FlowEntry(2, 8), FlowEntry(3, 6), FlowEntry(4, 4)]
    assert recall_at_k([1, 2, 3, 4, 99], truth, 4) == 1.0
    assert recall_at_k([1, 3], truth, 4) == 0.5
    assert recall_at_k([], truth, 4) == 0.0
    assert recall_at_k([5], [], 4) == 1.0
    # denominator is len(truth) when the trace has fewer flows than k
    assert recall_at_k([1, 2], truth[:2], 100) == 1.0


def test_node_memory_bytes():
    assert node_memory_bytes(2, 4096) == 294_912
    assert node_memory_bytes(2, 512) == 36_864
    assert node_memory_bytes(1, 1) == 36
    assert node_memory_bytes(2, 64) == 4608


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(k=1000)  # k > d*s
    with pytest.raises(ValueError):
        small_config(trace_path="x.ntrc")  # both sources
    for sizes in (dict(num_packets=10), dict(num_flows=5), dict(num_packets=10, num_flows=5)):
        with pytest.raises(ValueError, match="--packets and --flows size a --zipf synthesis only"):
            ExperimentConfig(n_switches=2, d=1, s=16, k=4, seeds=(1,), trace_path="x.ntrc", **sizes)
    with pytest.raises(ValueError):
        ExperimentConfig(n_switches=2, d=1, s=16, k=4, seeds=(1,))  # no source
    with pytest.raises(ValueError):
        small_config(clusters=5)  # more clusters than switches
    with pytest.raises(ValueError):
        small_config(seeds=())
    with pytest.raises(ValueError):
        small_config(cycles=0)
    with pytest.raises(ValueError):
        small_config(engine="gpu")
    with pytest.raises(ValueError):
        small_config(engine="arrays", drop_probability=0.1)
    with pytest.raises(ValueError):
        small_config(s=1000)  # s not a power of two
    # flags the run would use only after making or reading the trace, or never
    with pytest.raises(ValueError, match="drop_probability"):
        small_config(drop_probability=-0.5)
    with pytest.raises(ValueError, match="drop_probability"):
        small_config(drop_probability=1.0)
    with pytest.raises(ValueError, match="k must be"):
        small_config(k=0)
    with pytest.raises(ValueError, match="affinity"):
        small_config(affinity=2.0)
    with pytest.raises(ValueError, match="at least one switch"):
        small_config(n_switches=0)


def test_run_seed_pinned_result():
    res = run_seed(small_config(), 1)
    assert res.recall == 1.0
    assert res.messages == 1824
    assert res.memory_bytes == 4608
    assert res.recirculations == 347
    assert res.dropped == 0


def test_engines_agree_flat():
    ref = run_seed(small_config(engine="reference"), 1)
    arr = run_seed(small_config(engine="arrays"), 1)
    assert (ref.recall, ref.messages, ref.recirculations) == (
        arr.recall, arr.messages, arr.recirculations
    )


def test_engines_agree_clustered():
    cfg_ref = small_config(n_switches=9, clusters=3, engine="reference")
    cfg_arr = small_config(n_switches=9, clusters=3, engine="arrays")
    ref = run_seed(cfg_ref, 2)
    arr = run_seed(cfg_arr, 2)
    assert (ref.recall, ref.messages, ref.recirculations) == (
        arr.recall, arr.messages, arr.recirculations
    )


def test_engines_agree_across_cycles():
    ref = run_seed(small_config(cycles=3, engine="reference"), 3)
    arr = run_seed(small_config(cycles=3, engine="arrays"), 3)
    assert (ref.recall, ref.messages, ref.recirculations) == (
        arr.recall, arr.messages, arr.recirculations
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(1, 3),
    st.sampled_from([16, 64]),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from(list(DeliveryOrder)),
    st.sampled_from([0.0, 0.2]),
    st.integers(1, 2**16),
)
def test_engines_agree_over_whole_runs(shape, d, s, cycles, affinity, order, drop, seed):
    # a reference run, lossy or not, against a lossless arrays run of the
    # same config: loss changes only drops, and the engines agree on the
    # split, every cycle's ingest, the clusters and the query table
    n, clusters = shape
    base = dict(n_switches=n, clusters=clusters, d=d, s=s, k=8, seeds=(seed,), cycles=cycles,
                affinity=affinity, zipf_a=1.0, num_packets=5000, num_flows=500)
    reported = []

    def recording_recall(ids, truth, k):
        reported.append(list(ids))
        return recall_at_k(ids, truth, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "recall_at_k", recording_recall)
        ref = run_seed(ExperimentConfig(**base, drop_probability=drop, delivery_order=order,
                                        engine="reference"), seed)
        arr = run_seed(ExperimentConfig(**base, engine="arrays"), seed)
    assert (ref.recall, ref.messages, ref.recirculations, ref.delivered) == (
        arr.recall, arr.messages, arr.recirculations, arr.delivered
    )
    assert reported[0] == reported[1]
    assert arr.dropped == 0 and (ref.dropped == 0) == (drop == 0 or n == 1)


def test_loss_changes_nothing_but_drops():
    lossless = run_seed(small_config(engine="reference"), 3)
    lossy = run_seed(
        small_config(drop_probability=0.3, delivery_order=DeliveryOrder.RANDOM), 3
    )
    assert lossy.dropped > 0
    assert lossy.recall == lossless.recall
    assert lossy.delivered == lossless.delivered
    assert lossy.messages == lossless.messages  # drops excluded by default


def test_include_drops_counts_retransmissions():
    base = small_config(drop_probability=0.3)
    with_drops = small_config(drop_probability=0.3, include_drops=True)
    a = run_seed(base, 4)
    b = run_seed(with_drops, 4)
    assert a.delivered == b.delivered
    assert b.messages == b.delivered + b.dropped
    assert a.messages == a.delivered


@pytest.mark.parametrize("cycles", [1, 2, 3, 7])
def test_cycle_pieces_are_array_splits(cycles):
    for length in {0, 1, cycles - 1, cycles, cycles + 1, 3 * cycles - 1, 3 * cycles, 3 * cycles + 2}:
        stream = np.arange(length, dtype=np.uint32)
        want = np.array_split(stream, cycles)
        got = [cycle_piece(stream, cycles, cyc) for cyc in range(cycles)]
        assert [len(p) for p in got] == [len(p) for p in want]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


def test_auto_engine_selection():
    assert run_seed(small_config(engine="auto"), 5) == run_seed(
        small_config(engine="arrays"), 5
    )


def test_csv_report_shape_and_determinism():
    cfg = small_config(seeds=(1, 2, 3))
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(cfg)
    csv1 = rep1.to_csv()
    assert csv1 == rep2.to_csv()
    lines = csv1.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 + 1  # header, one per seed, AVG
    assert lines[-1].startswith("AVG,")
    row = lines[1].split(",")
    assert len(row) == len(CSV_HEADER.split(","))
    assert row[0] == "1"
    assert row[1] == "4" and row[2] == "1" and row[3] == "2" and row[4] == "64"
    float(row[11])  # recall parses
    assert "." in row[11] and len(row[11].split(".")[1]) == 6
    assert 0.0 <= rep1.avg_recall <= 1.0


def test_trace_path_config(tmp_path, monkeypatch):
    tr = gen_zipf(1.0, 4000, 200, seed=8)
    path = str(tmp_path / "in.ntrc")
    write_trace(tr, path)
    cfg = ExperimentConfig(
        n_switches=3, d=2, s=64, k=16, seeds=(1, 2), trace_path=path
    )
    reads = []
    monkeypatch.setattr(cli, "read_trace", lambda p: reads.append(p) or read_trace(p))
    rep = run_experiment(cfg)
    assert reads == [path]  # one read shared by every seed
    assert rep.num_packets == 4000
    assert rep.num_flows == 200
    # identical trace for every seed, but split and tables still vary by seed
    assert len({r.recall for r in rep.rows}) >= 1
    assert "" == rep.to_csv().split("\n")[1].split(",")[6]  # zipf column empty


def test_cli_end_to_end(tmp_path):
    trace_path = str(tmp_path / "t.ntrc")
    csv_path = str(tmp_path / "out.csv")
    assert main(["gen-trace", "--zipf", "1.0", "--packets", "3000",
                 "--flows", "150", "--seed", "7", "--out", trace_path]) == 0
    assert main(["verify", "--trace", trace_path]) == 0
    assert main(["run", "--switches", "4", "--vectors", "2", "--slots", "64",
                 "--k", "16", "--trace", trace_path, "--seeds", "1,2",
                 "--out", csv_path]) == 0
    lines = open(csv_path).read().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4


def test_cli_run_zipf_and_options(tmp_path):
    csv_path = str(tmp_path / "z.csv")
    rc = main(["run", "--switches", "5", "--clusters", "2", "--vectors", "2",
               "--slots", "32", "--k", "8", "--zipf", "1.0", "--packets", "2000",
               "--flows", "100", "--drop", "0.2", "--order", "random",
               "--seeds", "3", "--engine", "reference", "--out", csv_path])
    assert rc == 0
    body = open(csv_path).read()
    assert body.startswith(CSV_HEADER)
    assert ",0.2," in body  # drop column carries the setting


def test_cli_error_paths(tmp_path, capsys):
    assert main(["verify", "--trace", str(tmp_path / "missing.ntrc")]) == 1
    assert main(["gen-trace", "--zipf", "1.0", "--packets", "10", "--flows", "5",
                 "--seed", "1", "--out", "/nonexistent/dir/x.ntrc"]) == 1
    # zipf without sizes is a config error, reported not raised
    assert main(["run", "--switches", "2", "--zipf", "1.0",
                 "--out", str(tmp_path / "r.csv")]) == 1
    capsys.readouterr()

    trace = tmp_path / "a.ntrc"
    write_trace(gen_zipf(1.0, 3000, 150, seed=7), str(trace))
    out = tmp_path / "o.csv"
    run = ["run", "--switches", "3", "--trace", str(trace), "--k", "8", "--slots", "64", "--out", str(out)]
    # trace sizes come from the trace: a sizing flag would be silently ignored
    assert main([*run, "--packets", "10", "--flows", "5"]) == 1
    assert capsys.readouterr().err == (
        "error: --packets and --flows size a --zipf synthesis only, not a --trace run\n"
    )
    # two traces concatenated read as one file with trailing bytes
    trace.write_bytes(trace.read_bytes() * 2)
    assert main(run) == 1
    assert main(["verify", "--trace", str(trace)]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and all(e.startswith("error: ") and "trailing bytes" in e for e in errors)
    assert not out.exists()


def test_non_finite_zipf_rejected(tmp_path, capsys):
    out = tmp_path / "never.out"
    sizes = ["--packets", "1000", "--flows", "100"]
    for zipf in ("nan", "inf"):
        assert main(["run", "--switches", "3", "--zipf", zipf, *sizes, "--k", "8", "--slots", "64",
                     "--out", str(out)]) == 1
        assert main(["gen-trace", "--zipf", zipf, *sizes, "--seed", "1", "--out", str(out)]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert errors == [f"error: zipf exponent must be positive and finite, not {z}"
                      for z in ("nan", "nan", "inf", "inf")]
    assert not out.exists()


@pytest.mark.parametrize("engine", ["reference", "arrays"])
def test_switch_count_beyond_16_bits_rejected_before_trace_work(engine, tmp_path, capsys, monkeypatch):
    small_config(n_switches=65536, engine=engine)
    with pytest.raises(ValueError, match="--switches must be at most 65536: switch ids are 16 bits"):
        small_config(n_switches=65537, engine=engine)

    def no_synthesis(*args):
        raise AssertionError("trace synthesized for a rejected config")

    monkeypatch.setattr(cli, "gen_zipf", no_synthesis)
    drop = ["--drop", "0.1"] if engine == "reference" else []
    out = tmp_path / "never.out"
    assert main(["run", "--switches", "70000", "--zipf", "1.0", "--packets", "1000", "--flows", "100",
                 "--k", "8", "--engine", engine, *drop, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --switches must be at most 65536: switch ids are 16 bits\n"
    assert not out.exists()


def _fresh_python(*args):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


# Run in a fresh process: free blocks left in the heap by earlier tests would
# serve the allocation below whatever the threshold.
HEAP_PROBE = """
import ctypes, sys
import numpy as np
from nettopk.cli import main

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo2
assert main(["gen-trace", "--zipf", "1.0", "--packets", "10", "--flows", "5",
             "--seed", "1", "--out", sys.argv[1]]) == 0
big = np.ones(1 << 20)  # 8 MiB; freeing it would raise glibc's threshold past 1 MiB
del big
before = mallinfo2().hblkhd
block = np.ones(1 << 17)  # 1 MiB
print(mallinfo2().hblkhd - before, block.nbytes)
"""


def test_main_keeps_large_arrays_out_of_the_heap(tmp_path):
    try:
        ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        pytest.skip("C library without mallinfo2")
    proc = _fresh_python("-c", HEAP_PROBE, str(tmp_path / "t.ntrc"))
    assert proc.returncode == 0, proc.stderr
    mapped, size = map(int, proc.stdout.split()[-2:])
    assert mapped >= size


# python -O strips assert statements, so `nettopk verify` must not rest on them.
OPTIMIZED_PROBE = """
import sys
from nettopk.flowtable import FlowEntry, TableConfig, hash_index
from nettopk.precision import local_estimate
from nettopk.protocol import InvariantError, SwitchState, check_cycle_invariants, run_cycle
from nettopk.transport import Network, NetworkConfig

def outcome(check, error=InvariantError):
    try:
        check()
    except error:
        return "raised"
    return "passed"

# one of two messages delivered: the handler ends the step after the first
class Stop(Exception):
    pass

def stop(sender, entry):
    raise Stop

net = Network(NetworkConfig(n=2))
net.broadcast(0, "r", [FlowEntry(1, 1), FlowEntry(2, 2)])
try:
    net.step({(1, "r"): stop})
except Stop:
    pass
audit = outcome(net.audit_exactly_once)

# the one G-TopK entry moved to an empty vector-0 slot on every switch
cfg = TableConfig(d=2, s=16, seeds=(31, 77))
switches = [SwitchState(i, cfg, rng_seed=1) for i in range(2)]
j = hash_index(cfg, 0, 5)
for sw in switches:
    sw.l_topk.table.set_entry(0, j, FlowEntry(5, 10))
run_cycle(switches, Network(NetworkConfig(n=2)))
for sw in switches:
    sw.g_topk.set_entry(0, (j + 1) % cfg.s, FlowEntry(5, 20))
    sw.g_topk.set_entry(0, j, FlowEntry(0, 0))
invariants = outcome(lambda: check_cycle_invariants(switches))

# the empty-slot sentinel is never a stored flow
query = outcome(lambda: switches[0].query_flow(0), ValueError)
local = outcome(lambda: local_estimate(switches[0].l_topk, 0), ValueError)
print(sys.flags.optimize, audit, invariants, query, local)
"""


def test_checks_raise_under_python_O():
    proc = _fresh_python("-O", "-c", OPTIMIZED_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] + ["raised"] * 4


def test_python_m_nettopk_runs_the_cli():
    proc = _fresh_python("-W", "error", "-m", "nettopk", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: nettopk")
    assert proc.stderr == ""


def test_readme_quick_start_runs():
    # the README's Python block documents the library API; it must keep running
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    proc = _fresh_python("-W", "error", "-c", blocks[0])
    assert proc.returncode == 0, proc.stderr
    # the flow's network-wide count, deliveries and drops
    assert [word.isdigit() for word in proc.stdout.split()] == [True] * 3, proc.stdout


# Flow ids are uint32: 2**32 flows would wrap the last id to 0. Under a
# 1 GiB address-space limit, a check that let the count through would fail
# fast on the 32 GiB cdf instead of allocating it. MAX_FLOWS itself is a
# legal count, which the synthesis bound rejects on a machine with less
# physical memory than its synthesis needs; gen-trace and run end in one
# error line either way, from the bound or from the rlimit. One BLAS thread
# keeps numpy's own import well inside the limit on many-core machines.
FLOWS_PROBE = """
import os, resource, sys
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from nettopk.cli import ExperimentConfig, main
from nettopk.workload import MAX_FLOWS, gen_zipf

assert MAX_FLOWS == 2**32 - 1
try:
    ExperimentConfig(n_switches=2, d=2, s=64, k=8, seeds=(1,), zipf_a=1.0, num_packets=10,
                     num_flows=MAX_FLOWS)
    print("max: accepted")
except ValueError as exc:
    print("max:", exc)
try:
    ExperimentConfig(n_switches=2, d=2, s=64, k=8, seeds=(1,), zipf_a=1.0, num_packets=10,
                     num_flows=MAX_FLOWS + 1)
except ValueError as exc:
    print("config:", exc)
try:
    gen_zipf(1.0, 10, MAX_FLOWS + 1, seed=1)
except ValueError as exc:
    print("gen_zipf:", exc)
for flows in (MAX_FLOWS + 1, MAX_FLOWS):
    print("gen-trace:", main(["gen-trace", "--zipf", "1.0", "--packets", "10", "--flows", str(flows),
                              "--seed", "1", "--out", sys.argv[1]]))
    print("run:", main(["run", "--switches", "2", "--k", "8", "--zipf", "1.0", "--packets", "10",
                        "--flows", str(flows), "--out", sys.argv[1]]))
"""


def test_flow_count_beyond_uint32_rejected_before_allocation(tmp_path):
    out = tmp_path / "never.out"
    proc = _fresh_python("-c", FLOWS_PROBE, str(out))
    assert proc.returncode == 0, proc.stderr
    message = "--flows must be at most 4294967295: flow ids are uint32"
    lines = proc.stdout.splitlines()
    need = 10 * ZIPF_BYTES_PER_PACKET + (2**32 - 1) * ZIPF_BYTES_PER_FLOW
    if need <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        assert lines[0] == "max: accepted"
    else:
        assert lines[0].startswith("max: --packets 10 needs at least ")
        assert lines[0].endswith("GiB of physical memory")
    assert lines[1:] == [
        f"config: {message}", f"gen_zipf: {message}", "gen-trace: 1", "run: 1", "gen-trace: 1", "run: 1",
    ]
    errors = proc.stderr.splitlines()
    assert errors[:2] == [f"error: {message}"] * 2
    assert len(errors) == 4 and all(e.startswith("error: ") for e in errors[2:]), proc.stderr
    assert not out.exists()


# Under a 1 GiB address-space limit, a check that let the first two through
# would fail on an allocation: 10**12 packets ask numpy for 7.28 TiB, and
# 10**8 cycles split every switch's stream into that many pieces at once.
# Without its check, the third fails only after synthesis, in split_stream,
# and a trace shorter than --cycles would run cycles of empty streams.
BOUNDS_PROBE = """
import os, resource, sys
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from nettopk.cli import main
from nettopk.workload import gen_zipf, write_trace

out, trace = sys.argv[1:3]
write_trace(gen_zipf(1.0, 10, 5, seed=1), trace)
zipf = ["run", "--switches", "2", "--zipf", "1.0", "--out", out]
print(main(zipf + ["--k", "8", "--packets", "1000000000000", "--flows", "100"]))
print(main(zipf + ["--k", "8", "--packets", "1000", "--flows", "100", "--cycles", "100000000"]))
print(main(zipf + ["--k", "8", "--packets", "1000", "--flows", "7"]))
print(main(["run", "--switches", "2", "--k", "4", "--trace", trace, "--cycles", "11", "--out", out]))
"""


def test_outsized_inputs_rejected_before_allocation(tmp_path):
    out = tmp_path / "never.out"
    proc = _fresh_python("-c", BOUNDS_PROBE, str(out), str(tmp_path / "t.ntrc"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] * 4
    errors = proc.stderr.splitlines()
    assert len(errors) == 4, proc.stderr
    assert errors[0].startswith("error: --packets 1000000000000 needs at least 14901.2 GiB to synthesize")
    assert errors[1:] == [
        "error: --cycles must be at most the packet count, 1000",
        "error: --k must be at most --flows",
        "error: --cycles must be at most the packet count, 10",
    ]
    assert not out.exists()


def test_synthesis_bound_is_physical_memory():
    flows = ZIPF_SMALL["num_flows"]
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    most = (have - ZIPF_BYTES_PER_FLOW * flows) // ZIPF_BYTES_PER_PACKET
    small_config(num_packets=most)
    with pytest.raises(ValueError, match=f"--packets {most + 1} needs .* with --flows {flows}, "):
        small_config(num_packets=most + 1)
    # gen_zipf runs the same check; a count whose draws alone exceed
    # physical memory fails fast even if the check were gone
    with pytest.raises(ValueError, match=f"--packets {have} needs"):
        gen_zipf(1.0, have, flows, seed=1)
    most_flows = (have - ZIPF_BYTES_PER_PACKET) // ZIPF_BYTES_PER_FLOW
    with pytest.raises(ValueError, match=f"--packets 1 needs .* with --flows {most_flows + 1}, "):
        small_config(num_packets=1, num_flows=most_flows + 1)


@pytest.mark.parametrize("engine", ["reference", "arrays"])
def test_table_bound_is_physical_memory(engine):
    # each boundary config is only constructed: none allocates a table
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    per_slot = TABLE_BYTES_PER_SLOT[engine]
    d, s = 2, 1 << 20
    most = have // (per_slot * d * s)
    assert 1 <= most < MAX_SWITCHES
    small_config(n_switches=most, d=d, s=s, engine=engine)
    with pytest.raises(ValueError, match=f"--slots {s} and --vectors {d} on {most + 1} switches need "
                                         f"at least .* of {engine} engine tables, more than "):
        small_config(n_switches=most + 1, d=d, s=s, engine=engine)
    most_d = have // (per_slot * 4 * s)
    small_config(d=most_d, s=s, engine=engine)
    with pytest.raises(ValueError, match=f"--vectors {most_d + 1} on 4 switches need"):
        small_config(d=most_d + 1, s=s, engine=engine)
    fits = 1 << ((have // (per_slot * 4 * d)).bit_length() - 1)
    small_config(d=d, s=fits, engine=engine)
    with pytest.raises(ValueError, match=f"--slots {2 * fits} and --vectors {d} on 4 switches need"):
        small_config(d=d, s=2 * fits, engine=engine)


def test_auto_engine_bound_follows_the_engine_it_runs():
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    s = 1 << 20
    n = have // (TABLE_BYTES_PER_SLOT["reference"] * 2 * s) + 1
    small_config(n_switches=n, s=s)  # lossless: the arrays engine
    with pytest.raises(ValueError, match="of reference engine tables"):
        small_config(n_switches=n, s=s, drop_probability=0.1)


@pytest.mark.parametrize("flag, value, rule", [
    ("--packets", "-5", "non-negative"), ("--flows", "0", "at least 1"), ("--seed", "-1", "non-negative"),
])
def test_gen_trace_rejects_out_of_range_sizes_and_seeds(flag, value, rule, tmp_path, capsys):
    out = tmp_path / "never.ntrc"
    args = {"--zipf": "1.0", "--packets": "10", "--flows": "5", "--seed": "1", "--out": str(out), flag: value}
    assert main(["gen-trace", *(x for kv in args.items() for x in kv)]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be {rule}, not {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["run", "--engine", "reference"], ["run", "--engine", "arrays"], ["verify"]])
def test_trace_without_packets_rejected_by_name(command, tmp_path, capsys):
    # a 0-packet trace is legal to write, but there is nothing to simulate
    trace, out = tmp_path / "empty.ntrc", tmp_path / "never.csv"
    assert main(["gen-trace", "--zipf", "1.0", "--packets", "0", "--flows", "5",
                 "--seed", "1", "--out", str(trace)]) == 0
    assert len(read_trace(str(trace)).packets) == 0
    capsys.readouterr()
    run = ["--switches", "3", "--k", "4", "--slots", "64", "--out", str(out)] if command[0] == "run" else []
    assert main([*command, "--trace", str(trace), *run]) == 1
    assert capsys.readouterr().err == f"error: trace {trace} holds no packets\n"
    assert not out.exists()


@pytest.mark.parametrize("seed, rc", [("-1", 1), (str(2**64), 1), (str(2**64 - 1), 0)])
def test_seeds_must_fit_64_bits(seed, rc, tmp_path, capsys):
    # derive_seed masks to 64 bits, so a seed outside them would alias one inside
    out = tmp_path / "out.csv"
    assert main(["run", "--switches", "3", "--zipf", "1.0", "--packets", "1000", "--flows", "100",
                 "--k", "8", "--slots", "64", "--seeds", seed, "--out", str(out)]) == rc
    err = capsys.readouterr().err
    if rc:
        assert err == f"error: --seeds must be in [0, 2**64), not {seed}\n"
        assert not out.exists()
    else:
        assert err == "" and out.read_text().splitlines()[1].startswith(f"{seed},")


# Physical memory admits 10**8 packets (1.5 GiB), and the 1 GiB
# address-space limit does not: synthesis runs out of memory part way.
MEMORY_PROBE = """
import os, resource, sys
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from nettopk.cli import main

print(main(["run", "--switches", "2", "--k", "8", "--zipf", "1.0", "--packets", "100000000",
            "--flows", "1000", "--out", sys.argv[1]]))
"""


def test_out_of_memory_is_one_error_line(tmp_path):
    need = 10**8 * ZIPF_BYTES_PER_PACKET + 1000 * ZIPF_BYTES_PER_FLOW
    if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        pytest.skip("the synthesis bound rejects 10**8 packets on this machine")
    out = tmp_path / "never.out"
    proc = _fresh_python("-c", MEMORY_PROBE, str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]
    assert proc.stderr.startswith("error: out of memory: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not out.exists()
