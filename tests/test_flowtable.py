"""Tables, hashing, memory accounting, and the pipeline-order checker."""

import pytest

from nettopk.flowtable import (
    EMPTY_COUNT,
    EMPTY_ID,
    AccessLog,
    Field,
    FlowEntry,
    Mode,
    MultiVectorTable,
    PipelineOrderError,
    TableConfig,
    check_placement_rows,
    hash_index,
    logged_rows,
    memory_bytes,
    mix32,
    snapshot_copy,
)

CFG2 = TableConfig(d=2, s=16, seeds=(7, 8))


def test_mix32_golden():
    assert mix32(0) == 0
    assert mix32(1) == 1364076727
    # masked to 32 bits regardless of input width
    assert mix32(2**40 + 1) == mix32(1)


def test_hash_index_golden():
    cfg = TableConfig(d=1, s=4096, seeds=(0x9E3779B9,))
    assert hash_index(cfg, 0, 1) == 1283


def test_hash_index_range_and_determinism():
    for fid in (1, 2, 1000, 2**32 - 1):
        j1 = hash_index(CFG2, 0, fid)
        j2 = hash_index(CFG2, 0, fid)
        assert j1 == j2
        assert 0 <= j1 < CFG2.s
    # distinct seeds give distinct placements for at least some flows
    assert any(hash_index(CFG2, 0, f) != hash_index(CFG2, 1, f) for f in range(1, 50))


def test_hash_index_single_slot():
    cfg = TableConfig(d=1, s=1, seeds=(3,))
    assert all(hash_index(cfg, 0, f) == 0 for f in range(1, 20))


def test_hash_index_rejects_bad_args():
    with pytest.raises(ValueError, match="vector index 2 out of range"):
        hash_index(CFG2, 2, 1)
    with pytest.raises(ValueError, match="vector index -1 out of range"):
        hash_index(CFG2, -1, 1)
    with pytest.raises(ValueError, match="empty-slot sentinel"):
        hash_index(CFG2, 0, EMPTY_ID)


def test_config_validation():
    with pytest.raises(ValueError):
        TableConfig(d=0, s=4, seeds=())
    with pytest.raises(ValueError):
        TableConfig(d=1, s=3, seeds=(1,))
    with pytest.raises(ValueError):
        TableConfig(d=1, s=0, seeds=(1,))
    with pytest.raises(ValueError):
        TableConfig(d=2, s=4, seeds=(1,))


def test_config_masks_seeds():
    cfg = TableConfig(d=1, s=4, seeds=(2**40 + 5,))
    assert cfg.seeds == (5,)


def test_memory_bytes():
    cfg = TableConfig(d=2, s=4096, seeds=(1, 2))
    assert memory_bytes(cfg, 4, 4) == 65536
    assert memory_bytes(cfg, 0, 4) == 32768
    small = TableConfig(d=3, s=2, seeds=(1, 2, 3))
    assert memory_bytes(small, 4, 2) == 36


def test_entries_vector_major_order():
    t = MultiVectorTable(CFG2)
    t.set_entry(1, 3, FlowEntry(9, 90))
    t.set_entry(0, 5, FlowEntry(7, 70))
    t.set_entry(0, 2, FlowEntry(8, 80))
    assert list(t.entries()) == [FlowEntry(8, 80), FlowEntry(7, 70), FlowEntry(9, 90)]
    assert t.occupancy() == 3


def test_snapshot_copy_isolated():
    t = MultiVectorTable(CFG2)
    t.set_entry(0, 1, FlowEntry(3, 30))
    c = snapshot_copy(t)
    c.set_entry(0, 1, FlowEntry(4, 40))
    c.set_entry(1, 2, FlowEntry(5, 50))
    assert t.ids[0][1] == 3
    assert t.occupancy() == 1


def test_equals():
    a = MultiVectorTable(CFG2)
    b = MultiVectorTable(CFG2)
    assert a.equals(b)
    b.set_entry(0, 0, FlowEntry(1, 1))
    assert not a.equals(b)


def test_check_placement():
    t = MultiVectorTable(CFG2)
    fid = 11
    t.set_entry(0, hash_index(CFG2, 0, fid), FlowEntry(fid, 5))
    check_placement_rows(t.ids, t.counts, t.config)
    wrong = (hash_index(CFG2, 0, fid) + 1) % CFG2.s
    t.set_entry(0, wrong, FlowEntry(fid, 5))
    with pytest.raises(AssertionError):
        check_placement_rows(t.ids, t.counts, t.config)


def test_check_placement_rejects_counted_empty_slot():
    t = MultiVectorTable(CFG2)
    t.set_entry(0, 0, FlowEntry(EMPTY_ID, 9))
    with pytest.raises(AssertionError):
        check_placement_rows(t.ids, t.counts, t.config)


def test_access_log_accepts_forward_pass():
    log = AccessLog()
    log.record(0, Field.ID, Mode.READ)
    log.record(0, Field.COUNT, Mode.READ)
    log.record(0, Field.COUNT, Mode.WRITE)
    log.record(1, Field.ID, Mode.READ)
    log.record(1, Field.COUNT, Mode.WRITE)
    log.verify(Field.ID)


def test_access_log_rejects_backwards_vector():
    log = AccessLog()
    log.record(1, Field.ID, Mode.READ)
    log.record(0, Field.ID, Mode.READ)
    with pytest.raises(PipelineOrderError):
        log.verify(Field.ID)


def test_access_log_rejects_field_backtrack():
    log = AccessLog()
    log.record(0, Field.COUNT, Mode.READ)
    log.record(0, Field.ID, Mode.WRITE)
    with pytest.raises(PipelineOrderError):
        log.verify(Field.ID)
    # the same sequence is legal when counts come first
    log.verify(Field.COUNT)


def test_access_log_first_field_symmetry():
    log = AccessLog()
    log.record(0, Field.ID, Mode.READ)
    log.record(0, Field.COUNT, Mode.READ)
    log.verify(Field.ID)
    with pytest.raises(PipelineOrderError):
        log.verify(Field.COUNT)


def test_access_log_recirculate_resets_position():
    log = AccessLog()
    log.record(1, Field.COUNT, Mode.READ)
    log.recirculate()
    log.record(0, Field.ID, Mode.WRITE)
    log.verify(Field.ID)
    assert log.recirculations == 1


def test_access_log_same_stage_repeats_allowed():
    log = AccessLog()
    log.record(0, Field.COUNT, Mode.READ)
    log.record(0, Field.COUNT, Mode.WRITE)
    log.record(0, Field.COUNT, Mode.READ)
    log.verify(Field.ID)
    log.verify(Field.COUNT)


def test_logged_rows_record_to_log():
    t = MultiVectorTable(CFG2)
    assert logged_rows(t) == (t.ids, t.counts)
    log = AccessLog()
    ids, counts = logged_rows(t, log)
    assert ids[0][0] == EMPTY_ID
    counts[0][0] = 7
    assert counts[1][0] == EMPTY_COUNT
    ids[1][0] = 3
    assert (t.counts[0][0], t.ids[1][0]) == (7, 3)
    assert log.records == [
        (0, Field.ID, Mode.READ),
        (0, Field.COUNT, Mode.WRITE),
        (1, Field.COUNT, Mode.READ),
        (1, Field.ID, Mode.WRITE),
    ]
