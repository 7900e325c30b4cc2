"""TraceLog behaviours."""

from repro.sim import TraceLog


# ---------------------------------------------------------------------------
# TraceLog
# ---------------------------------------------------------------------------

def test_tracelog_disabled_records_nothing():
    log = TraceLog(enabled=False)
    log.record("event", x=1)
    assert len(log) == 0


def test_tracelog_filter_and_dump():
    log = TraceLog(enabled=True)
    log.record("a", v=1)
    log.record("b", v=2)
    log.record("a", v=3)
    assert len(list(log.records("a"))) == 2
    dump = log.dump()
    assert "a" in dump and "v=2" in dump
