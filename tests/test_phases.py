import pytest

from curie.phases import phase, recording


def test_phases_add_up_within_a_recording():
    with recording() as seconds:
        with phase("a"):
            pass
        with phase("a"):
            pass
        with phase("b"):
            pass
    assert set(seconds) == {"a", "b"}
    assert all(v >= 0.0 for v in seconds.values())


def test_phase_outside_any_recording_records_nothing():
    with phase("x"):
        pass
    with recording() as seconds:
        pass
    with phase("x"):
        pass
    assert seconds == {}


def test_recording_ends_when_its_block_raises():
    with pytest.raises(RuntimeError):
        with recording() as seconds:
            with phase("a"):
                raise RuntimeError("boom")
    with phase("b"):
        pass
    assert set(seconds) == {"a"}


def test_an_inner_recording_shadows_the_outer_one():
    with recording() as outer:
        with recording() as inner:
            with phase("a"):
                pass
        with phase("b"):
            pass
    assert set(inner) == {"a"} and set(outer) == {"b"}
