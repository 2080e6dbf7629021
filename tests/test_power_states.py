"""Power states and transitions."""

import pytest

from repro.power.states import (
    ALLOWED_TRANSITIONS,
    PowerState,
    exit_latency_ns,
    is_low_power,
)


class TestExitLatencies:
    def test_powerdown_18ns(self):
        assert exit_latency_ns(PowerState.POWER_DOWN) == 18.0

    def test_selfrefresh_768ns(self):
        assert exit_latency_ns(PowerState.SELF_REFRESH) == 768.0

    def test_deep_powerdown_bounded_by_powerdown(self):
        # Section 4.3: the DLL stays on, so exit <= power-down exit.
        assert (exit_latency_ns(PowerState.DEEP_POWER_DOWN)
                <= exit_latency_ns(PowerState.POWER_DOWN))

    def test_standby_states_have_no_exit(self):
        assert exit_latency_ns(PowerState.ACTIVE_STANDBY) == 0.0
        assert exit_latency_ns(PowerState.PRECHARGE_STANDBY) == 0.0


class TestLowPowerClassification:
    @pytest.mark.parametrize("state,expected", [
        (PowerState.ACTIVE_STANDBY, False),
        (PowerState.PRECHARGE_STANDBY, False),
        (PowerState.POWER_DOWN, True),
        (PowerState.SELF_REFRESH, True),
        (PowerState.DEEP_POWER_DOWN, True),
    ])
    def test_is_low_power(self, state, expected):
        assert is_low_power(state) is expected


class TestTransitions:
    def test_standby_to_low_power_legal(self):
        for target in (PowerState.POWER_DOWN, PowerState.SELF_REFRESH,
                       PowerState.DEEP_POWER_DOWN):
            assert target in ALLOWED_TRANSITIONS[PowerState.PRECHARGE_STANDBY]

    def test_low_power_to_low_power_illegal(self):
        assert (PowerState.SELF_REFRESH
                not in ALLOWED_TRANSITIONS[PowerState.POWER_DOWN])

    def test_active_cannot_sleep_directly(self):
        # Banks must be precharged before any low-power entry.
        assert (PowerState.POWER_DOWN
                not in ALLOWED_TRANSITIONS[PowerState.ACTIVE_STANDBY])

    def test_self_transitions_allowed(self):
        for state in PowerState:
            assert state in ALLOWED_TRANSITIONS[state]

    def test_every_state_can_reach_standby(self):
        for state in PowerState:
            assert PowerState.PRECHARGE_STANDBY in ALLOWED_TRANSITIONS[state]
