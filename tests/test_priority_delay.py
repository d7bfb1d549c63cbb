"""Tests for Algorithm 2 (Random Delays with Priorities) and its driver."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro import obs
from repro.core import (
    random_delay_priority_schedule,
    random_delay_schedule,
)
from repro.core.priority_delay import lex_delay_priority
from repro.heuristics import (
    algorithm_names,
    blevel_schedule,
    descendant_priority_schedule,
    dfds_schedule,
    get_algorithm,
    level_priority_schedule,
)
from repro.util.errors import InvalidScheduleError

from .strategies import sweep_instances


class TestAlgorithm2:
    def test_feasible(self, tet_instance):
        s = random_delay_priority_schedule(tet_instance, 8, seed=0)
        s.validate()

    def test_deterministic(self, tet_instance):
        a = random_delay_priority_schedule(tet_instance, 8, seed=3)
        b = random_delay_priority_schedule(tet_instance, 8, seed=3)
        assert np.array_equal(a.start, b.start)

    def test_meta(self, chain_instance):
        s = random_delay_priority_schedule(chain_instance, 2, seed=0)
        assert s.meta["algorithm"] == "random_delay_priority"

    def test_compaction_never_loses_to_algorithm1(self, tet_instance):
        """With identical randomness (same delays, same assignment), the
        prioritized list schedule compacts Algorithm 1's layer schedule:
        it should never be worse on real meshes."""
        rng = np.random.default_rng(0)
        delays = rng.integers(0, tet_instance.k, size=tet_instance.k)
        assignment = rng.integers(0, 8, size=tet_instance.n_cells)
        a1 = random_delay_schedule(
            tet_instance, 8, delays=delays, assignment=assignment
        )
        a2 = random_delay_priority_schedule(
            tet_instance, 8, delays=delays, assignment=assignment
        )
        assert a2.makespan <= a1.makespan

    def test_improvement_grows_with_m(self, tet_instance):
        """Paper Fig. 2(c): the gap between Alg 1 and Alg 2 widens as m
        grows (up to ~4x there).  Check the ratio is at least monotone
        non-trivially at the two extremes we can afford."""
        gaps = []
        for m in (4, 32):
            rng = np.random.default_rng(1)
            delays = rng.integers(0, tet_instance.k, size=tet_instance.k)
            assignment = rng.integers(0, m, size=tet_instance.n_cells)
            a1 = random_delay_schedule(
                tet_instance, m, delays=delays, assignment=assignment
            )
            a2 = random_delay_priority_schedule(
                tet_instance, m, delays=delays, assignment=assignment
            )
            gaps.append(a1.makespan / a2.makespan)
        assert gaps[1] > gaps[0]

    @given(sweep_instances())
    @settings(max_examples=25, deadline=None)
    def test_always_feasible(self, inst):
        s = random_delay_priority_schedule(inst, 3, seed=0)
        s.validate()

    @given(sweep_instances(max_n=12, max_k=3))
    @settings(max_examples=20, deadline=None)
    def test_compaction_property_randomised(self, inst):
        rng = np.random.default_rng(0)
        delays = rng.integers(0, inst.k, size=inst.k)
        assignment = rng.integers(0, 2, size=inst.n_cells)
        a1 = random_delay_schedule(inst, 2, delays=delays, assignment=assignment)
        a2 = random_delay_priority_schedule(
            inst, 2, delays=delays, assignment=assignment
        )
        assert a2.makespan <= a1.makespan


@pytest.fixture
def traced():
    was = obs.tracing_enabled()
    obs.reset()
    obs.enable_tracing()
    yield
    obs.reset()
    if not was:
        obs.disable_tracing()


class TestPriorityDelayDriver:
    @pytest.mark.parametrize("name", algorithm_names())
    def test_one_priority_span_per_registry_call(self, traced, tet_instance, name):
        sched = get_algorithm(name)(tet_instance, 8, seed=0)
        spans = [s for s in obs.drain_spans() if s.name == "heuristics.priority"]
        if name == "fifo":
            assert spans == []
            return
        assert len(spans) == 1
        (span,) = spans
        assert span.cat == "sched"
        assert span.args == {
            "algorithm": sched.meta["algorithm"],
            "n_tasks": tet_instance.n_tasks,
        }

    @pytest.mark.parametrize(
        "schedule",
        [level_priority_schedule, descendant_priority_schedule,
         dfds_schedule, blevel_schedule],
    )
    def test_delays_without_with_delays_raise(self, chain_instance, schedule):
        # Pinned delays must never be dropped silently.
        with pytest.raises(InvalidScheduleError, match="with_delays=False"):
            schedule(chain_instance, 4, seed=0, delays=[1, 1])

    @pytest.mark.parametrize(
        "schedule",
        [level_priority_schedule, descendant_priority_schedule,
         dfds_schedule, blevel_schedule],
    )
    def test_pinned_delays_are_recorded(self, chain_instance, schedule):
        s = schedule(chain_instance, 2, seed=0, with_delays=True, delays=[1, 0])
        s.validate()
        assert list(s.meta["delays"]) == [1, 0]

    def test_lex_key_orders_delayed_level_then_higher_secondary(
        self, chain_instance
    ):
        # Chain levels are 0..3 forward and 3..0 backward; delay 1 on the
        # backward sweep.  Secondary breaks ties, higher first.
        delays = np.array([0, 1])
        secondary = np.array([5, 0, 0, 0, 9, 0, 0, 7])
        key = lex_delay_priority(chain_instance, delays, secondary)
        primary = np.array([0, 1, 2, 3, 4, 3, 2, 1])
        order = np.lexsort((-secondary, primary))
        assert np.array_equal(np.argsort(key, kind="stable"), order)
