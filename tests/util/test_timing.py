"""Tests for the stage-timing stopwatch."""

import pickle

from repro.util.timing import NULL_TIMER, StageTimer


class TestSections:
    def test_section_records_time_and_calls(self):
        timer = StageTimer()
        with timer.section("stage"):
            pass
        assert timer.calls("stage") == 1
        assert timer.seconds("stage") >= 0.0

    def test_unentered_stage_reads_zero(self):
        timer = StageTimer()
        assert timer.seconds("never") == 0.0
        assert timer.calls("never") == 0

    def test_distinct_stages_accumulate_independently(self):
        timer = StageTimer()
        for _ in range(3):
            with timer.section("a"):
                pass
        with timer.section("b"):
            pass
        assert timer.calls("a") == 3
        assert timer.calls("b") == 1

    def test_nested_same_name_counts_calls_but_not_time_twice(self):
        timer = StageTimer()
        with timer.section("outer"):
            inner_before = timer.seconds("outer")
            with timer.section("outer"):
                pass
            # The inner exit recorded a call but no elapsed time.
            assert timer.calls("outer") == 1
            assert timer.seconds("outer") == inner_before
        assert timer.calls("outer") == 2
        assert timer.seconds("outer") > 0.0

    def test_nesting_of_different_names_is_inclusive(self):
        timer = StageTimer()
        with timer.section("outer"):
            with timer.section("inner"):
                pass
        assert timer.seconds("outer") >= timer.seconds("inner")

    def test_exception_inside_section_still_records(self):
        timer = StageTimer()
        try:
            with timer.section("stage"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert timer.calls("stage") == 1


class TestDisabled:
    def test_disabled_timer_records_nothing(self):
        timer = StageTimer(enabled=False)
        with timer.section("stage"):
            pass
        timer.add("stage", 1.0)
        assert timer.as_dict() == {}

    def test_disabled_sections_share_one_no_op(self):
        timer = StageTimer(enabled=False)
        assert timer.section("a") is timer.section("b")

    def test_null_timer_is_disabled(self):
        assert NULL_TIMER.enabled is False
        with NULL_TIMER.section("stage"):
            pass
        assert NULL_TIMER.as_dict() == {}


class TestMergeAndSnapshot:
    def test_add_folds_external_time(self):
        timer = StageTimer()
        timer.add("stage", 1.5, calls=3)
        timer.add("stage", 0.5)
        assert timer.seconds("stage") == 2.0
        assert timer.calls("stage") == 4

    def test_as_dict_sorted_top_cost_first_and_picklable(self):
        timer = StageTimer()
        timer.add("cheap", 0.1)
        timer.add("expensive", 9.0)
        timer.add("middle", 1.0)
        snapshot = timer.as_dict()
        assert list(snapshot) == ["expensive", "middle", "cheap"]
        assert snapshot["expensive"] == {"seconds": 9.0, "calls": 1}
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_clear_drops_stages(self):
        timer = StageTimer()
        timer.add("stage", 1.0)
        timer.clear()
        assert timer.as_dict() == {}
