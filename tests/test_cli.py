"""Experiment runner, metrics, CSV reports, and the command line."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nettopk import cli
from nettopk.cli import (
    CSV_HEADER,
    ExperimentConfig,
    main,
    node_memory_bytes,
    recall_at_k,
    run_experiment,
    run_seed,
)
from nettopk.flowtable import FlowEntry
from nettopk.transport import DeliveryOrder
from nettopk.workload import gen_zipf, read_trace, write_trace

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


def test_cli_error_paths(tmp_path):
    assert main(["verify", "--trace", str(tmp_path / "missing.ntrc")]) == 1
    assert main(["gen-trace", "--zipf", "1.0", "--packets", "10", "--flows", "5",
                 "--seed", "1", "--out", "/nonexistent/dir/x.ntrc"]) == 1
    # zipf without sizes is a config error, reported not raised
    assert main(["run", "--switches", "2", "--zipf", "1.0",
                 "--out", str(tmp_path / "r.csv")]) == 1


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
from nettopk.protocol import InvariantError, SwitchState, check_cycle_invariants, run_cycle
from nettopk.transport import Network, NetworkConfig

def outcome(check):
    try:
        check()
    except InvariantError:
        return "raised"
    return "passed"

# one of two messages delivered
net = Network(NetworkConfig(n=2))
net.broadcast(0, "r", [FlowEntry(1, 1), FlowEntry(2, 2)].__getitem__, 2)
net.step()
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
print(sys.flags.optimize, audit, outcome(lambda: check_cycle_invariants(switches)))
"""


def test_checks_raise_under_python_O():
    proc = _fresh_python("-O", "-c", OPTIMIZED_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "raised", "raised"]
