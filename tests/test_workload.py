"""Trace synthesis, splitting policy, the exact oracle, and trace files."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nettopk import workload
from nettopk.cli import MMAP_THRESHOLD
from nettopk.flowtable import FlowEntry, mix32
from nettopk.precision import derive_seed
from nettopk.workload import (
    GUIDE_STEPS,
    SPLIT_BLOCK,
    ZIPF_BLOCK,
    TRACE_MAGIC,
    SplitPlan,
    Trace,
    exact_topk,
    gen_zipf,
    read_trace,
    split_stream,
    write_trace,
    zipf_ranks,
    _home_switches,
)


def test_gen_zipf_deterministic():
    a = gen_zipf(1.0, 5000, 300, seed=9)
    b = gen_zipf(1.0, 5000, 300, seed=9)
    c = gen_zipf(1.0, 5000, 300, seed=10)
    assert np.array_equal(a.packets, b.packets)
    assert not np.array_equal(a.packets, c.packets)


def test_gen_zipf_ids_valid():
    tr = gen_zipf(0.8, 20_000, 500, seed=3)
    assert len(tr.packets) == 20_000
    assert tr.packets.min() >= 1
    assert tr.packets.max() <= 500
    assert tr.num_flows == 500


def test_gen_zipf_single_flow():
    tr = gen_zipf(1.0, 100, 1, seed=1)
    assert np.all(tr.packets == 1)


def test_gen_zipf_validation():
    with pytest.raises(ValueError):
        gen_zipf(0.0, 10, 5, seed=1)
    with pytest.raises(ValueError):
        gen_zipf(1.0, 10, 0, seed=1)


def test_rank1_mass_matches_harmonic_form():
    # at a=1.0 the heaviest flow carries ~ 1/H(num_flows) of the packets
    num_flows = 1000
    tr = gen_zipf(1.0, 200_000, num_flows, seed=5)
    top = exact_topk(tr, 1)[0]
    h = sum(1.0 / r for r in range(1, num_flows + 1))
    expected = 1.0 / h
    share = top.count / len(tr.packets)
    assert abs(share - expected) < 0.05 * expected


# sha256 of gen_zipf(a, packets, flows, seed).packets.tobytes(), recorded
# from the np.searchsorted synthesis the guide-table lookup replaced. These
# digests are the byte-identity contract: they never change.
TRACE_DIGESTS = [
    ((1.0, 3 * 2**16 + 5, 1000, 7), "bbdfd9ffc34df8440e981312f1af694c1dd347ce4e5f628df9b8a5633683c9ed"),
    ((1.0, 500, 20_000, 3), "7b2f660d63c918ef4830fa4408a4e3fa27b2561dd9b7afb27ea9d0a7930ea5d0"),
    ((1.0, 1000, 1, 5), "ef2d9ea73cb0231d38dca545d371d5df089b08b23138859f4776eed870f76912"),
    ((0.8, 100_000, 5000, 11), "1677861c01b86b8392a242e586495edb87ad18d7122b1dfcb92b3e85e8ac7425"),
    ((1.0, 2_000_000, 200_000, 1001), "de11c9f4ab6f5c74d45ff21e1e668702e22331c1567d72f5f89cd72a031ab280"),
    ((3.0, 50_000, 300, 17), "46c28b443b663fff83628da97fdbaed2d383c934854ae2fa365dbd57343653da"),
]


@pytest.mark.parametrize("args, digest", TRACE_DIGESTS, ids=[str(args) for args, _ in TRACE_DIGESTS])
def test_gen_zipf_bytes_are_pinned(args, digest):
    assert hashlib.sha256(gen_zipf(*args).packets.tobytes()).hexdigest() == digest


def _zipf_cdf(a, flows):
    cdf = np.cumsum(np.arange(1, flows + 1, dtype=np.float64) ** -a)
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return cdf


def _adversarial_draws(cdf):
    """Every cdf value and its neighbours, every guide edge g/G for each G up
    to 2**12 with its neighbours, 0.0 and the largest double below 1.0."""
    edges = np.arange(1 << 12) / (1 << 12)
    points = np.concatenate([cdf, edges, [np.nextafter(1.0, 0.0)]])
    draws = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    return draws[draws < 1.0]


def test_large_exponent_cdf_has_equal_entries():
    cdf = _zipf_cdf(5.0, 3000)
    assert (np.diff(cdf) == 0).any()
    u = _adversarial_draws(cdf)
    assert np.array_equal(zipf_ranks(cdf, u), np.searchsorted(cdf, u, side="right"))


@settings(max_examples=100, deadline=None)
@given(
    a=st.one_of(st.none(), st.floats(0.3, 5.0)),
    flows=st.integers(1, 3000),
    packets=st.one_of(st.none(), st.integers(0, 3000)),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 3, ZIPF_BLOCK]),
    steps=st.sampled_from([0, 1, GUIDE_STEPS]),
)
def test_zipf_ranks_match_searchsorted(a, flows, packets, seed, block, steps):
    # a=None is the uniform cdf k/flows, whose values sit on guide edges of
    # every power-of-two guide. packets=None looks up every adversarial draw;
    # otherwise a sample of them and uniform draws, which may be fewer than
    # the flows. A step cap of 0 or 1 leaves draws for the binary-search finish.
    cdf = np.arange(1, flows + 1) / flows if a is None else _zipf_cdf(a, flows)
    u = _adversarial_draws(cdf)
    if packets is not None:
        rng = np.random.default_rng(seed)
        u = np.where(rng.random(packets) < 0.5, rng.choice(u, packets), rng.random(packets))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "ZIPF_BLOCK", block)
        mp.setattr(workload, "GUIDE_STEPS", steps)
        ranks = zipf_ranks(cdf, u)
    assert ranks.dtype == np.intp
    assert np.array_equal(ranks, np.searchsorted(cdf, u, side="right"))


def test_exact_topk_counts_and_order():
    packets = np.array([3, 3, 7, 7, 1], dtype=np.uint32)
    tr = Trace(packets=packets, num_flows=7)
    assert exact_topk(tr, 1) == [FlowEntry(7, 2)]  # count tie: larger id first
    assert exact_topk(tr, 2) == [FlowEntry(7, 2), FlowEntry(3, 2)]
    assert exact_topk(tr, 3) == [FlowEntry(7, 2), FlowEntry(3, 2), FlowEntry(1, 1)]


def test_exact_topk_truncates_to_distinct_flows():
    packets = np.array([4, 4, 2], dtype=np.uint32)
    tr = Trace(packets=packets, num_flows=4)
    assert exact_topk(tr, 10) == [FlowEntry(4, 2), FlowEntry(2, 1)]
    with pytest.raises(ValueError):
        exact_topk(tr, 0)


def test_exact_topk_sparse_ids():
    # a tally indexed by raw id would need 2**32 counters here
    packets = np.array([0xFFFFFFFF, 5, 0xFFFFFFFF], dtype=np.uint32)
    tr = Trace(packets=packets, num_flows=2)
    assert exact_topk(tr, 2) == [FlowEntry(0xFFFFFFFF, 2), FlowEntry(5, 1)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=400), st.integers(1, 45))
def test_exact_topk_matches_a_full_sort(packets, k):
    # few flow ids, so tallies tie at the k-th place and across it
    tr = Trace(packets=np.array(packets, dtype=np.uint32), num_flows=40)
    ids, tallies = tr.tally
    order = sorted(zip(tallies.tolist(), ids.tolist()), reverse=True)[:k]
    assert exact_topk(tr, k) == [FlowEntry(fid, count) for count, fid in order]


def test_split_single_switch():
    tr = gen_zipf(1.0, 1000, 50, seed=2)
    streams = split_stream(tr, SplitPlan(k=8, n_switches=1, affinity=1.0, seed=3))
    assert len(streams) == 1
    assert np.array_equal(streams[0], tr.packets)


def test_split_conserves_packets_per_flow():
    tr = gen_zipf(1.0, 20_000, 400, seed=7)
    streams = split_stream(tr, SplitPlan(k=16, n_switches=5, affinity=0.7, seed=8))
    assert sum(len(s) for s in streams) == len(tr.packets)
    merged = np.concatenate(streams)
    assert np.array_equal(np.bincount(merged, minlength=401),
                          np.bincount(tr.packets, minlength=401))


def test_split_preserves_relative_order_per_switch():
    tr = gen_zipf(1.0, 3000, 100, seed=4)
    streams = split_stream(tr, SplitPlan(k=8, n_switches=3, affinity=0.5, seed=5))
    for stream in streams:
        # each stream must be a subsequence of the original trace
        pos = 0
        packets = tr.packets
        for fid in stream:
            while packets[pos] != fid:
                pos += 1
            pos += 1


def home(plan, fid):
    """A flow's home switch, restated with the scalar hash."""
    return mix32(fid ^ derive_seed(plan.seed, 1)) % plan.n_switches


def test_affinity_one_pins_non_top_flows():
    plan = SplitPlan(k=8, n_switches=4, affinity=1.0, seed=6)
    tr = gen_zipf(1.0, 30_000, 200, seed=6)
    streams = split_stream(tr, plan)
    top = {e.id for e in exact_topk(tr, plan.k)}
    location = {}
    for sid, stream in enumerate(streams):
        for fid in np.unique(stream):
            fid = int(fid)
            if fid in top:
                continue
            assert location.setdefault(fid, sid) == sid  # never on two switches
            assert home(plan, fid) == sid


def test_top_flows_spread_across_switches():
    plan = SplitPlan(k=4, n_switches=4, affinity=1.0, seed=6)
    tr = gen_zipf(1.0, 30_000, 200, seed=6)
    streams = split_stream(tr, plan)
    heaviest = exact_topk(tr, 1)[0].id
    hosts = [sid for sid, s in enumerate(streams) if np.any(s == heaviest)]
    assert len(hosts) == 4  # thousands of packets land everywhere


def test_affinity_fraction_observed():
    plan = SplitPlan(k=4, n_switches=5, affinity=0.8, seed=9)
    tr = gen_zipf(0.6, 60_000, 50, seed=11)  # flat-ish: plenty per flow
    streams = split_stream(tr, plan)
    top = {e.id for e in exact_topk(tr, plan.k)}
    on_home = 0
    total = 0
    for sid, stream in enumerate(streams):
        for fid in stream:
            fid = int(fid)
            if fid in top:
                continue
            total += 1
            on_home += home(plan, fid) == sid
    assert abs(on_home / total - 0.8) < 0.02


def test_affinity_zero_never_home():
    plan = SplitPlan(k=4, n_switches=3, affinity=0.0, seed=12)
    tr = gen_zipf(1.0, 5000, 60, seed=13)
    streams = split_stream(tr, plan)
    top = {e.id for e in exact_topk(tr, plan.k)}
    for sid, stream in enumerate(streams):
        for fid in np.unique(stream):
            fid = int(fid)
            if fid not in top:
                assert home(plan, fid) != sid


def _split_reference(trace, plan):
    # the per-packet switch choice of split_stream, then one full pass over
    # the trace per switch
    n = plan.n_switches
    packets = trace.packets
    top_ids = np.array([e.id for e in exact_topk(trace, plan.k)], dtype=np.uint32)
    rng = np.random.default_rng(derive_seed(plan.seed, 2))
    top_mask = np.isin(packets, top_ids)
    switch = np.empty(len(packets), dtype=np.int32)
    switch[top_mask] = rng.integers(0, n, int(top_mask.sum()))
    rest = ~top_mask
    m = int(rest.sum())
    homes = _home_switches(packets[rest], derive_seed(plan.seed, 1), n)
    stay = rng.random(m) < plan.affinity
    dest = rng.integers(0, n - 1, m)
    dest += homes
    dest += 1
    dest %= n
    np.copyto(dest, homes, where=stay)
    switch[rest] = dest
    return [packets[switch == i] for i in range(n)]


# 257 switches need a uint16 switch array; 256 fit a uint8 one, but the flow
# table needs 16 bits to mark a top flow with 256
@pytest.mark.parametrize("n", [2, 3, 256, 257])
@pytest.mark.parametrize("affinity", [0.0, 0.5, 1.0])
def test_split_matches_one_pass_per_switch(n, affinity):
    tr = gen_zipf(1.0, 3 * SPLIT_BLOCK + 1000, 5000, seed=n)
    plan = SplitPlan(k=32, n_switches=n, affinity=affinity, seed=17)
    streams = split_stream(tr, plan)
    expected = _split_reference(tr, plan)
    assert len(streams) == n
    for got, want in zip(streams, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# sha256 over each split_stream stream's length (8 bytes, little-endian) and
# bytes, recorded from the split that drew a hop for every non-top packet.
# These digests are the byte-identity contract: they never change.
SPLIT_DIGESTS = [
    (((1.0, 200_000, 5000, 3), 16, 10, 1.0, 5),
     "ed1b6d7cd1cf256cf98d072d60d27d9960af73a636cf9cb65eea7e0cce9fa529"),
    (((1.0, 200_000, 5000, 3), 16, 7, 0.99999, 6),
     "07e9a2e69ea30cdade46b942af4a8fccc5394d1956dba687c93f21f9b0f15114"),
    (((1.0, 3 * 2**16 + 5, 1000, 7), 8, 7, 0.999, 7),
     "89ae74dc810c18b678970c855d1a08d64fed2bc3536f95b897052319e8c70820"),
    (((0.8, 150_000, 20_000, 11), 32, 300, 0.5, 8),
     "80da80889ae57d50498c61debb9496f21e3033b0ef74979b3ddfc80200b11b9e"),
    (((1.0, 100_000, 2000, 13), 4, 3, 0.0, 9),
     "d8f0d8967931e2a048055f3926d62aae49017fc2636dec8ca540e6e9a2ba50d0"),
]


@pytest.mark.parametrize("args, digest", SPLIT_DIGESTS, ids=[str(args) for args, _ in SPLIT_DIGESTS])
def test_split_stream_bytes_are_pinned(args, digest, monkeypatch):
    trace_args, k, n, affinity, seed = args
    trace = gen_zipf(*trace_args)
    plan = SplitPlan(k=k, n_switches=n, affinity=affinity, seed=seed)
    for block in (SPLIT_BLOCK, 1 << 12):  # the last hop falls in a middle block
        monkeypatch.setattr(workload, "SPLIT_BLOCK", block)
        h = hashlib.sha256()
        for stream in split_stream(trace, plan):
            h.update(len(stream).to_bytes(8, "little"))
            h.update(stream.tobytes())
        assert h.hexdigest() == digest


@pytest.mark.parametrize("block", [1, 7, 4096])
@pytest.mark.parametrize("affinity", [0.0, 0.5, 0.999])
def test_split_does_not_depend_on_the_block_size(block, affinity, monkeypatch):
    # a block of one packet makes every leaving packet its block's only hop
    monkeypatch.setattr(workload, "SPLIT_BLOCK", block)
    tr = gen_zipf(1.0, 3000, 300, seed=4)
    plan = SplitPlan(k=8, n_switches=5, affinity=affinity, seed=23)
    for got, want in zip(split_stream(tr, plan), _split_reference(tr, plan), strict=True):
        assert np.array_equal(got, want)


def _count_hashed(monkeypatch):
    """The ids split_stream hashes to home switches, counted as it runs."""
    hashed = []
    home_switches = workload._home_switches

    def counted(ids, seed, n):
        hashed.append(len(ids))
        return home_switches(ids, seed, n)

    monkeypatch.setattr(workload, "_home_switches", counted)
    return hashed


def _large_id_traces():
    # a gen_zipf trace stretched by a monotone map, which keeps its top-k
    # order, and a hand-built one with the largest uint32 id as its top flow
    # and the next as one of its smallest
    stretched = gen_zipf(1.0, 3 * SPLIT_BLOCK + 1000, 5000, seed=31)
    ids = np.array([*range(1, 41), 0xFFFFFFFE, 0xFFFFFFFF], dtype=np.uint32)
    counts = [*range(41, 1, -1), 3, 500]
    rng = np.random.default_rng(32)
    return {
        "stretched": Trace(packets=stretched.packets * np.uint32(800_000), num_flows=5000),
        "max-id": Trace(packets=rng.permutation(np.repeat(ids, counts)), num_flows=len(ids)),
    }


@pytest.mark.parametrize("name", ["stretched", "max-id"])
@pytest.mark.parametrize("n", [2, 257])
@pytest.mark.parametrize("affinity", [0.0, 0.5, 1.0])
def test_split_with_large_ids_hashes_each_packet(name, n, affinity, monkeypatch):
    # ids far above the trace length get no flow table: every packet is
    # hashed, and the top packets are found among the sorted top ids
    tr = _large_id_traces()[name]
    plan = SplitPlan(k=8, n_switches=n, affinity=affinity, seed=19)
    hashed = _count_hashed(monkeypatch)
    streams = split_stream(tr, plan)
    assert sum(hashed) == len(tr.packets)
    for got, want in zip(streams, _split_reference(tr, plan), strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("largest", [999, 1000])
def test_split_flow_table_bound(largest, monkeypatch):
    # 4000 packets: a flow table while the largest id is below 4000 // 4,
    # which hashes each distinct id once; at the bound, a hash per packet
    assert 4000 // workload.TABLE_PACKETS_PER_ID == 1000
    packets = gen_zipf(1.0, 4000, 500, seed=33).packets.copy()
    packets[-1] = largest
    tr = Trace(packets=packets, num_flows=largest)
    plan = SplitPlan(k=16, n_switches=5, affinity=0.5, seed=21)
    hashed = _count_hashed(monkeypatch)
    streams = split_stream(tr, plan)
    assert sum(hashed) == (len(tr.tally[0]) if largest < 1000 else len(packets))
    for got, want in zip(streams, _split_reference(tr, plan), strict=True):
        assert np.array_equal(got, want)


def test_block_temporaries_stay_below_the_mmap_threshold():
    # a block's widest temporaries are int64 indices and float64 draws; a
    # request of exactly the threshold is mapped too, as glibc adds its
    # chunk header to it
    assert SPLIT_BLOCK * 8 < MMAP_THRESHOLD
    assert ZIPF_BLOCK * 8 < MMAP_THRESHOLD


def test_split_peak_memory_per_packet(monkeypatch):
    # with blocks of 4096 packets the per-block arrays are small next to the
    # trace; what is left is the draws and the switch array, a byte a packet
    # each, then the switch array and the streams, one trace long together
    monkeypatch.setattr(workload, "SPLIT_BLOCK", 1 << 12)
    tr = gen_zipf(1.0, 1 << 18, 20_000, seed=5)
    tr.tally  # cached before the split, as read_trace leaves it
    plan = SplitPlan(k=64, n_switches=10, affinity=0.9, seed=11)
    tracemalloc.start()
    try:
        streams = split_stream(tr, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_packet = peak / len(tr.packets)
    assert per_packet < 8, f"split peak {per_packet:.1f} bytes a packet"
    # the draws do not depend on the block size
    monkeypatch.undo()
    for got, want in zip(streams, split_stream(tr, plan), strict=True):
        assert np.array_equal(got, want)


def test_split_empty_trace():
    tr = Trace(packets=np.zeros(0, dtype=np.uint32), num_flows=4)
    streams = split_stream(tr, SplitPlan(k=2, n_switches=3, affinity=0.5, seed=1))
    assert [len(s) for s in streams] == [0, 0, 0]


def test_split_plan_validation():
    with pytest.raises(ValueError):
        SplitPlan(k=4, n_switches=0, affinity=0.5, seed=1)
    with pytest.raises(ValueError):
        SplitPlan(k=4, n_switches=2, affinity=1.5, seed=1)
    tr = gen_zipf(1.0, 100, 10, seed=1)
    with pytest.raises(ValueError):
        split_stream(tr, SplitPlan(k=11, n_switches=2, affinity=0.5, seed=1))


def test_trace_file_roundtrip(tmp_path):
    tr = gen_zipf(1.0, 2500, 80, seed=14)
    path = str(tmp_path / "t.ntrc")
    write_trace(tr, path)
    back = read_trace(path)
    assert np.array_equal(back.packets, tr.packets)
    assert back.num_flows == tr.num_flows
    size = (tmp_path / "t.ntrc").stat().st_size
    assert size == 17 + 4 * len(tr.packets)  # header + one u32 per packet


def test_trace_file_errors(tmp_path):
    good = struct.pack("<4sBIQ", TRACE_MAGIC, 1, 3, 2) + struct.pack("<2I", 1, 2)

    bad_magic = tmp_path / "m.ntrc"
    bad_magic.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(ValueError, match="magic"):
        read_trace(str(bad_magic))

    bad_version = tmp_path / "v.ntrc"
    bad_version.write_bytes(good[:4] + b"\x09" + good[5:])
    with pytest.raises(ValueError, match="version"):
        read_trace(str(bad_version))

    short_header = tmp_path / "h.ntrc"
    short_header.write_bytes(good[:10])
    with pytest.raises(ValueError, match="header"):
        read_trace(str(short_header))

    truncated = tmp_path / "p.ntrc"
    truncated.write_bytes(good[:-4])  # claims 2 packets, holds 1
    with pytest.raises(ValueError, match="truncated"):
        read_trace(str(truncated))

    trailing = tmp_path / "t.ntrc"
    trailing.write_bytes(good + struct.pack("<I", 3))  # claims 2 packets, holds 3
    with pytest.raises(ValueError, match="4 trailing bytes after the header's 2 packets") as exc:
        read_trace(str(trailing))
    assert str(trailing) in str(exc.value)

    concatenated = tmp_path / "c.ntrc"
    concatenated.write_bytes(good + good)
    with pytest.raises(ValueError, match=f"{len(good)} trailing bytes"):
        read_trace(str(concatenated))

    # a header claiming 2**40 packets must fail before anything that size is read
    oversized = tmp_path / "o.ntrc"
    oversized.write_bytes(struct.pack("<4sBIQ", TRACE_MAGIC, 1, 3, 2**40) + good[17:])
    with pytest.raises(ValueError, match="truncated") as exc:
        read_trace(str(oversized))
    assert str(oversized) in str(exc.value)

    zero_id = tmp_path / "z.ntrc"
    zero_id.write_bytes(good[:-8] + struct.pack("<2I", 0, 2))
    with pytest.raises(ValueError, match="reserved"):
        read_trace(str(zero_id))

    # num_flows may exceed the distinct ids (a population size), never fall short
    roomy = tmp_path / "g.ntrc"
    roomy.write_bytes(good)
    assert read_trace(str(roomy)).num_flows == 3
    lying = tmp_path / "f.ntrc"
    lying.write_bytes(struct.pack("<4sBIQ", TRACE_MAGIC, 1, 1, 2) + good[17:])
    with pytest.raises(ValueError, match="header claims 1 flows, packets hold 2 distinct ids") as exc:
        read_trace(str(lying))
    assert str(lying) in str(exc.value)


def test_trace_packets_are_read_only(tmp_path):
    # Trace.tally is cached, so the packets under it must not change
    tr = gen_zipf(1.0, 100, 10, seed=1)
    path = str(tmp_path / "t.ntrc")
    write_trace(tr, path)
    for trace in (tr, read_trace(path)):
        with pytest.raises(ValueError, match="read-only"):
            trace.packets[0] = 5


def test_one_tally_per_trace(tmp_path, monkeypatch):
    # read_trace's distinct-id check, the truth and the split's top-k ids
    # all read one cached np.unique of the trace
    path = str(tmp_path / "t.ntrc")
    write_trace(gen_zipf(1.0, 5000, 300, seed=2), path)
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(a) or unique(*a, **kw))
    tr = read_trace(path)
    assert len(calls) == 1
    truth = exact_topk(tr, 8)
    split_stream(tr, SplitPlan(k=8, n_switches=3, affinity=0.5, seed=3))
    assert len(calls) == 1
    monkeypatch.undo()
    assert truth == exact_topk(Trace(packets=tr.packets.copy(), num_flows=tr.num_flows), 8)
