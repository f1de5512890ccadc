"""The arrays engine's ingest across processes, and the fork helper under it.

_kernels.ingest_population runs one share of the switches per core through
_fork.fork_map and writes the shares' rows, RNG states and recirculations
back by switch index. These tests force the fork path with the packet
threshold at 0 and two cores at most, and require the serial loop's tables,
states and CSV bytes, no child or descriptor left behind on any path, a
child's exception raised in the parent, and a fork that fails run in
process.
"""

import errno
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nettopk import _kernels, cli
from nettopk._fork import fork_map
from nettopk.cli import ExperimentConfig, cycle_piece, main, run_experiment
from nettopk.flowtable import TableConfig
from nettopk.precision import derive_seed
from nettopk.workload import SplitPlan, gen_zipf, split_stream, write_trace


def forked(mp):
    """Patch mp so that every ingest forks across two cores; returns the
    list fork appends to on each call."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    mp.setattr(_kernels, "FORK_MIN_PACKETS", 0)
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    mp.setattr(os, "fork", counting_fork)
    return calls


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def open_fds():
    """The process's open descriptors, or None where /proc/self/fd is missing."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def population(n, d, seed, cycles):
    """Fresh (n, d, 64) rows, RNG states and each cycle's pieces of a split trace."""
    config = TableConfig(d=d, s=64, seeds=tuple(range(7, 7 + d)))
    trace = gen_zipf(1.0, 4000, 400, seed)
    streams = split_stream(trace, SplitPlan(k=8, n_switches=n, affinity=0.5, seed=seed))
    pieces = [[cycle_piece(s, cycles, cyc) for s in streams] for cyc in range(cycles)]
    l_ids = np.zeros((n, d, 64), dtype=np.uint64)
    return config, l_ids, l_ids.copy(), [derive_seed(seed, 0x100 + i) for i in range(n)], pieces


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(1, 3),
    st.integers(1, 2**16),
)
def test_forked_ingest_equals_serial(d, shape, cycles, seed):
    n, clusters = shape
    config, ids_a, counts_a, states_a, pieces = population(n, d, seed, cycles)
    ids_b, counts_b, states_b = ids_a.copy(), counts_a.copy(), list(states_a)
    run = ExperimentConfig(n_switches=n, clusters=clusters, d=d, s=64, k=8, seeds=(seed,),
                           cycles=cycles, affinity=0.5, zipf_a=1.0, num_packets=4000,
                           num_flows=400, engine="arrays")
    serial_csv = run_experiment(run).to_csv()
    with pytest.MonkeyPatch.context() as mp:
        forks = forked(mp)
        forked_csv = run_experiment(run).to_csv()
        assert len(forks) == cycles
        for cyc in range(cycles):
            recirc_b = _kernels.ingest_population(ids_b, counts_b, config, states_b, pieces[cyc])
            mp.setattr(_kernels, "FORK_MIN_PACKETS", 1 << 62)
            recirc_a = _kernels.ingest_population(ids_a, counts_a, config, states_a, pieces[cyc])
            mp.setattr(_kernels, "FORK_MIN_PACKETS", 0)
            assert recirc_a == recirc_b
            assert states_a == states_b
            assert np.array_equal(ids_a, ids_b) and np.array_equal(counts_a, counts_b)
        assert len(forks) == 2 * cycles
    assert forked_csv == serial_csv
    assert no_child_left()


def failing_ingest(where):
    """An ingest_arrays that fails in the parent or in a child."""
    parent = os.getpid()
    real = _kernels.ingest_arrays

    def ingest_arrays(*args):
        in_child = os.getpid() != parent
        if where == "child raises" and in_child:
            raise ValueError("flow id 0 is the empty-slot sentinel (from a child)")
        if where == "child dies" and in_child:
            os.kill(os.getpid(), signal.SIGKILL)
        if where == "parent raises" and not in_child:
            raise ValueError("flow id 0 is the empty-slot sentinel (from the parent)")
        return real(*args)

    return ingest_arrays


@pytest.mark.parametrize("where", ["clean", "child raises", "child dies", "parent raises"])
def test_no_child_outlives_an_ingest(where, monkeypatch):
    config, l_ids, l_counts, states, pieces = population(4, 2, 5, 1)
    forks = forked(monkeypatch)
    monkeypatch.setattr(_kernels, "ingest_arrays", failing_ingest(where))
    fds = open_fds()
    if where == "clean":
        assert _kernels.ingest_population(l_ids, l_counts, config, states, pieces[0]) > 0
    else:
        error = ChildProcessError if where == "child dies" else ValueError
        with pytest.raises(error, match="from a child|from the parent|wait status"):
            _kernels.ingest_population(l_ids, l_counts, config, states, pieces[0])
    assert forks == [1]
    assert open_fds() == fds
    assert no_child_left()


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_child_exception_keeps_its_type_and_message(monkeypatch):
    config, l_ids, l_counts, states, pieces = population(3, 2, 9, 1)
    forked(monkeypatch)
    parent = os.getpid()
    real = _kernels.ingest_arrays

    def ingest_arrays(*args):
        if os.getpid() != parent:
            raise Unpicklable("one", "two")
        return real(*args)

    monkeypatch.setattr(_kernels, "ingest_arrays", ingest_arrays)
    # an exception that does not survive pickling arrives named in a RuntimeError
    with pytest.raises(RuntimeError, match=r"^Unpicklable: one and two$"):
        _kernels.ingest_population(l_ids, l_counts, config, states, pieces[0])
    monkeypatch.setattr(_kernels, "ingest_arrays", failing_ingest("child raises"))
    with pytest.raises(ValueError, match=r"^flow id 0 is the empty-slot sentinel \(from a child\)$"):
        _kernels.ingest_population(l_ids, l_counts, config, states, pieces[0])
    assert no_child_left()


def test_cli_prints_one_error_line_for_a_child_exception(tmp_path, monkeypatch, capsys):
    trace = tmp_path / "a.ntrc"
    write_trace(gen_zipf(1.0, 3000, 150, seed=7), str(trace))
    out = tmp_path / "o.csv"
    forks = forked(monkeypatch)
    monkeypatch.setattr(_kernels, "ingest_arrays", failing_ingest("child raises"))
    assert main(["run", "--switches", "3", "--trace", str(trace), "--k", "8", "--slots", "64",
                 "--engine", "arrays", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: flow id 0 is the empty-slot sentinel (from a child)\n"
    assert forks == [1] and not out.exists()
    assert no_child_left()


@pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)])
def test_a_fork_that_fails_ingests_in_process(call, code, tmp_path, monkeypatch):
    config, l_ids, l_counts, states, pieces = population(4, 2, 13, 1)
    want = (l_ids.copy(), l_counts.copy(), list(states))
    want_recirc = _kernels.ingest_population(*want[:2], config, want[2], pieces[0])
    trace = tmp_path / "a.ntrc"
    write_trace(gen_zipf(1.0, 3000, 150, seed=7), str(trace))
    run = ["run", "--switches", "3", "--trace", str(trace), "--k", "8", "--slots", "64",
           "--engine", "arrays", "--out"]
    assert main(run + [str(tmp_path / "serial.csv")]) == 0
    forks, failures = forked(monkeypatch), []

    def fail(*args):
        failures.append(1)
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, call, fail)
    fds = open_fds()
    assert _kernels.ingest_population(l_ids, l_counts, config, states, pieces[0]) == want_recirc
    assert np.array_equal(l_ids, want[0]) and np.array_equal(l_counts, want[1]) and states == want[2]
    assert main(run + [str(tmp_path / "failed.csv")]) == 0
    assert (tmp_path / "failed.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert failures == [1, 1] and forks == []
    assert open_fds() == fds
    assert no_child_left()


def test_fork_map_returns_results_in_share_order(monkeypatch):
    parent = os.getpid()

    def where(share):
        return share, os.getpid() == parent

    assert fork_map(where, [0, 1, 2, 3]) == [(0, True), (1, False), (2, False), (3, False)]
    real_fork, attempts = os.fork, []

    def second_fork_fails():
        attempts.append(1)
        if len(attempts) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    # the middle share no child could start for runs in process, in its place
    assert fork_map(where, [0, 1, 2, 3]) == [(0, True), (1, False), (2, True), (3, False)]
    assert len(attempts) == 3
    assert no_child_left()


def test_a_result_cut_short_is_a_child_failure():
    fds = open_fds()
    # the child writes the array, fails to pickle the lambda and exits with
    # status 1, so its result ends where a pickle may start
    with pytest.raises(ChildProcessError, match=r"ended with wait status 256$"):
        fork_map(lambda share: (np.zeros(1 << 16), lambda: share), [0, 1])
    parent = os.getpid()

    def killed_mid_write(share):
        if os.getpid() == parent:
            time.sleep(0.5)  # read nothing until the alarm has ended the child
            return None
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        return np.zeros(1 << 20)  # blocks on the full pipe until the alarm

    # the child dies inside its array's bytes, so its result ends mid-pickle
    with pytest.raises(ChildProcessError, match=rf"ended with wait status {signal.SIGALRM:d}$"):
        fork_map(killed_mid_write, [0, 1])
    assert open_fds() == fds
    assert no_child_left()


@pytest.mark.parametrize("how", ["one core", "no fork", "few packets"])
def test_serial_ingest_forks_nothing(how, monkeypatch):
    config, l_ids, l_counts, states, pieces = population(4, 2, 11, 1)
    want = (l_ids.copy(), l_counts.copy(), list(states))
    want_recirc = _kernels.ingest_population(*want[:2], config, want[2], pieces[0])
    forks = forked(monkeypatch)
    if how == "one core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif how == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(_kernels, "FORK_MIN_PACKETS", sum(map(len, pieces[0])) + 1)
    assert _kernels.ingest_population(l_ids, l_counts, config, states, pieces[0]) == want_recirc
    assert forks == []
    assert np.array_equal(l_ids, want[0]) and np.array_equal(l_counts, want[1]) and states == want[2]


def test_shares_balance_packets_largest_first():
    sizes = [5, 90, 40, 40, 10, 0, 30]
    shares = _kernels._shares(sizes, 2)
    assert sorted(i for share in shares for i in share) == list(range(len(sizes)))
    assert 1 in shares[0]  # the parent's share holds the largest switch
    assert [sum(sizes[i] for i in share) for share in shares] == [105, 110]
    assert _kernels._shares(sizes, 1) == [list(range(len(sizes)))]
    assert _kernels._shares([3], 2) == [[0]]


def test_run_on_streams_ingests_through_ingest_population(monkeypatch):
    # the arrays branch's one ingest call site, once per cycle
    calls = []
    real = _kernels.ingest_population

    def spy(*args):
        calls.append(len(args[4]))
        return real(*args)

    monkeypatch.setattr(_kernels, "ingest_population", spy)
    cli.run_seed(ExperimentConfig(n_switches=3, d=2, s=64, k=8, seeds=(1,), cycles=2, zipf_a=1.0,
                                  num_packets=2000, num_flows=200, engine="arrays"), 1)
    assert calls == [3, 3]
