"""Golden delivery schedules of the object model.

Each case runs fixed-seed populations through run_cycle on a recording
Network, or through run_clustered with every phase's Network recording,
and hashes the event log (every enqueue, drop and delivery in order), the
delivered and dropped counts, and the resulting query tables. A refactor
of the driver or the transport that keeps these digests keeps the exact
delivery and drop schedule, not only the final tables. The same runs
without recording must deliver and drop as many copies and end with the
same tables, so the digests stand for the path that records nothing too.

Populations cover n in {1, 2, 5, 8}: all switches with traffic, one
switch with an empty local table, and every switch empty.
"""

import hashlib

import pytest

from nettopk import cluster
from nettopk.cluster import partition, run_clustered
from nettopk.flowtable import TableConfig
from nettopk.precision import ingest
from nettopk.protocol import SwitchState, run_cycle
from nettopk.transport import DeliveryOrder, Network, NetworkConfig
from nettopk.workload import gen_zipf

CFG = TableConfig(d=2, s=16, seeds=(13, 57))
SIZES = (1, 2, 5, 8)
EMPTY = ("none", "one", "all")
# (n, clusters) for the clustered runs
CLUSTERED = ((2, 1), (5, 2), (8, 3))

# case name -> (delivery order, drop probability)
CASES = {
    "fifo-lossless": (DeliveryOrder.FIFO_PER_PAIR, 0.0),
    "fifo-drop": (DeliveryOrder.FIFO_PER_PAIR, 0.3),
    "random-lossless": (DeliveryOrder.RANDOM, 0.0),
    "random-drop": (DeliveryOrder.RANDOM, 0.3),
}

CYCLE_DIGESTS = {
    "fifo-lossless": "fdb3342c97bead6a8577ad4cf96f6f4f4d46c07d52f89942c6332d475d1e4af2",
    "fifo-drop": "8b4c8bbc7fba04498d7fd7ad8f314d101da0c3d74deb733c8beff204b30494ec",
    "random-lossless": "1b1bd851b237a3205d62831bba7de9e1255a990889f8a6b3e79bf9565e90a41f",
    "random-drop": "91e000c80553233e1a992f6ba09dc0345137c3b096721aae1c6f92b777b39c19",
}
CLUSTERED_DIGESTS = {
    "fifo-lossless": "b960a514c199a7b035e951c802c58e7509cb3a87af6018843c3a18c1aa3de55c",
    "fifo-drop": "6309a451086855eac8c35c0824b7fb05ec5b09b9eaeb06c6bb650c28fb9be5e5",
    "random-lossless": "6ff4218489e404949b843fa729ebe9aeaf57f6950babf3bb955b932c866fa07e",
    "random-drop": "890f8e71644a30fcc695fc5befd342144ef1a2e4935639c4999c7d01600786bd",
}


def population(n, empty, seed):
    """n switches; empty names which of them keep an empty local table."""
    switches = []
    for i in range(n):
        sw = SwitchState(i, CFG, rng_seed=500 + 17 * seed + i)
        if not (empty == "all" or (empty == "one" and i == n // 2)):
            ingest(sw.l_topk, gen_zipf(1.1, 300, 60, seed=97 * seed + i).packets)
        switches.append(sw)
    return switches


def tables(switches):
    return [(sw.query.ids, sw.query.counts) for sw in switches]


def feed_tables(h, switches):
    for query in tables(switches):
        h.update(repr(query).encode())


def feed_events(h, net):
    h.update("\n".join(net.events).encode())
    h.update(f"|{net.delivered_count},{net.dropped_count}|".encode())


def cycle_runs(case, record):
    """Each flat population's (switches, network, stats) after its cycle."""
    order, drop = CASES[case]
    for n in SIZES:
        for k, empty in enumerate(EMPTY):
            switches = population(n, empty, seed=10 * n + k)
            net = Network(
                NetworkConfig(n=n, drop_probability=drop, delivery_order=order, seed=n + k),
                record_events=record,
            )
            stats = run_cycle(switches, net)
            net.audit_exactly_once()
            yield switches, [net], stats


def clustered_runs(case, record):
    """Each clustered population's (switches, phase networks, stats) after its run."""
    order, drop = CASES[case]

    def phase_network(config, participants=()):
        net = Network(config, participants=participants, record_events=record)
        networks.append(net)
        return net

    for n, c in CLUSTERED:
        for k, empty in enumerate(EMPTY):
            switches = population(n, empty, seed=10 * n + k + 5)
            networks = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cluster, "Network", phase_network)
                stats = run_clustered(
                    switches, partition(n, c, seed=n + k),
                    NetworkConfig(n=n, drop_probability=drop, delivery_order=order, seed=3 * n + k),
                )
            yield switches, networks, stats


@pytest.mark.parametrize("case", CASES)
def test_cycle_schedule_is_golden(case):
    h = hashlib.sha256()
    for switches, (net,), stats in cycle_runs(case, record=True):
        feed_events(h, net)
        h.update(f"|{stats.delivered},{stats.dropped}|".encode())
        feed_tables(h, switches)
    assert h.hexdigest() == CYCLE_DIGESTS[case]


@pytest.mark.parametrize("case", CASES)
def test_clustered_schedule_is_golden(case):
    h = hashlib.sha256()
    for switches, networks, stats in clustered_runs(case, record=True):
        for net in networks:
            feed_events(h, net)
        for phase in (stats.phase1, stats.phase2, stats.phase3):
            h.update(f"|{phase.delivered},{phase.dropped}|".encode())
        feed_tables(h, switches)
    assert h.hexdigest() == CLUSTERED_DIGESTS[case]


@pytest.mark.parametrize("runs", [cycle_runs, clustered_runs])
@pytest.mark.parametrize("case", CASES)
def test_unrecorded_runs_match_the_golden_ones(case, runs):
    # the digests cover only runs that record events; a run that does not
    # must deliver and drop as many copies and end with the same tables
    pairs = zip(runs(case, record=True), runs(case, record=False), strict=True)
    for (switches, networks, stats), (quiet_switches, quiet_networks, quiet_stats) in pairs:
        assert all(net.events for net in networks if net.enqueued_count)
        assert not any(net.events for net in quiet_networks)
        assert [(net.delivered_count, net.dropped_count) for net in quiet_networks] == [
            (net.delivered_count, net.dropped_count) for net in networks
        ]
        assert quiet_stats == stats
        assert tables(quiet_switches) == tables(switches)
