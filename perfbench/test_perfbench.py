"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import json
import re

import pytest

import run
import tracing

cli, kernels, transport = run.load_program()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_arithmetic():
    # root 0..10 with children A 1..4 (grandchild 2..3), B 3..6 overlapping A,
    # and C 9..12 reaching past the root's end
    starts = [0.0, 1.0, 2.0, 3.0, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert tracing.self_times(starts, ends, parents) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_recorder_totals_sum_per_name():
    rec = tracing.Recorder()
    top = rec.add("cli.seed", 0.0, 10.0, -1)
    rec.add("transport.step", 1.0, 2.0, top)
    rec.add("transport.step", 2.0, 4.0, top)
    totals = rec.totals()
    assert totals["cli.seed"] == pytest.approx((10.0, 7.0, 1))
    assert totals["transport.step"] == pytest.approx((3.0, 3.0, 2))


def test_metric_names_and_units():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in bench["per_layer"]} == set(run.PER_LAYER_UNITS)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        units = run.END_TO_END_UNITS if m in bench["end_to_end"] else run.PER_LAYER_UNITS
        assert units[m["name"]] == m["unit"]
    for w in bench["workloads"]:
        assert NAME.fullmatch(w["name"]), w["name"]


def test_pinned_rows_cover_the_default_seed():
    with open(run.PINNED) as fh:
        pinned = json.load(fh)
    for workload in run.WORKLOADS:
        assert set(pinned["rows"][workload]) == {str(n) for n in run.input_seeds(pinned["seed"])}


def _report(sim, recall="1.000000", messages="1430262", recirc="137405", memory="294912"):
    row = [str(sim), "10", "1", "2", "4096", "128", "", "2000000", "200000", "1", "0",
           recall, messages, memory, recirc]
    avg = ["AVG"] + row[1:]
    return "\n".join([cli.CSV_HEADER, ",".join(row), ",".join(avg)]) + "\n"


def test_output_check_accepts_pinned_row():
    pinned = {"seed": 1, "rows": {"headline": {"1001": {
        "recall": "1.000000", "messages": "1430262", "recirculations": "137405",
        "memory_bytes": "294912"}}}}
    row, problems = run.check_row(cli.CSV_HEADER, "headline", 1, 1001, _report(1001), pinned)
    assert problems == []
    assert row == {"recall": 1.0, "messages": 1430262, "recirculations": 137405}


@pytest.mark.parametrize(
    "seed, text",
    [
        (1, _report(1001, messages="1430263")),  # differs from the pinned value
        (1, _report(1001, recirc="137404")),
        (1, _report(1002)),  # no pinned row for this simulation seed
        (2, _report(2001, recall="0.940000")),  # below the README guarantee
        (2, _report(2001, memory="294900")),
        (2, _report(2002)),  # wrong seed column
        (2, _report(2001, messages="many")),
        (2, _report(2001).replace(",1430262,", ",")),  # a column missing
        (2, _report(2001).splitlines()[0] + "\n"),  # no rows
    ],
)
def test_output_check_rejects_tampered_rows(seed, text):
    pinned = {"seed": 1, "rows": {"headline": {"1001": {
        "recall": "1.000000", "messages": "1430262", "recirculations": "137405",
        "memory_bytes": "294912"}}}}
    sim = 1001 if seed == 1 else 2001
    row, problems = run.check_row(cli.CSV_HEADER, "headline", seed, sim, text, pinned)
    assert row is None
    assert problems


def _small_run(tmp_path, drop="0.1"):
    from nettopk.workload import gen_zipf, write_trace

    trace = tmp_path / "small.trace"
    write_trace(gen_zipf(1.0, 3000, 300, 5), str(trace))
    return ["run", "--trace", str(trace), "--seeds", "3", "--switches", "4", "--slots", "64",
            "--k", "8", "--drop", drop, "--out", str(tmp_path / "out.csv")]


def test_wrappers_are_restored(tmp_path):
    targets = run.trace_targets(cli, kernels, transport)
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    rec = tracing.Recorder()
    with pytest.raises(RuntimeError):
        with tracing.instrumented(rec, targets):
            for owner, attr, _, _ in targets:
                assert vars(owner)[attr].__wrapped__ is not None
            raise RuntimeError("boom")
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == originals

    with tracing.instrumented(rec, targets), rec.span("cli.seed"):
        assert cli.main(_small_run(tmp_path)) == 0
    traced = len(rec.start)
    assert traced > 1
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == originals
    assert cli.main(_small_run(tmp_path)) == 0
    assert len(rec.start) == traced  # the untimed call ran uninstrumented


def test_layer_metrics_of_traced_calls(tmp_path):
    for drop, layer in (("0.1", "transport.step_s"), ("0", "kernels.ingest_s")):
        rec = tracing.Recorder()
        with tracing.instrumented(rec, run.trace_targets(cli, kernels, transport)):
            with rec.span("cli.seed"):
                assert cli.main(_small_run(tmp_path, drop)) == 0
        m = run.layer_metrics(rec)
        assert m[layer] > 0
        assert m["workload.packets"] == 3000
        assert 0 <= m["cli.self_s"] <= m["cli.seed_s"]
        assert m["protocol.cycle_self_s"] <= m["protocol.cycle_s"]
        assert 0 < m["protocol.gtopk_occupancy"] <= 1
        if drop == "0":
            assert m["transport.delivered"] == 0
            assert m["kernels.recirc_ratio"] > 0
        else:
            assert m["transport.dropped"] > 0
            assert m["precision.recirc_ratio"] > 0
