"""Shared fixtures.

``checked_events`` re-checks the bookkeeping of every event the simulator
applies.  The event loop of :func:`sirnet.simulation.simulate` fires each
event through :func:`sirnet.simulation.fire`, which calls the module-level
``apply_infection`` and ``apply_removal``; the fixture wraps those two
names, so the checks run on the production loop itself.  An
infection is one pass that draws its ``(j, l)``, takes the matched
half-edges together and pairs the new infective's open half-edges, and
returns ``(j, l, p)``, so the checked deltas are those of the half-edges
the event actually took."""

import pytest

from oracles import check_invariants
from sirnet import simulation
from sirnet.errors import StateCorruptionError


class EventChecker:
    """Checking wrappers around the two event functions.

    After each event they check its deltas (infection:
    ``dN_IS = k - 2 - 2j - l - 2p`` and ``dN_RS = -l`` for the
    ``(j, l, p)`` it returns; removal: ``-level`` and
    ``+level``), that ``S + I + R`` is unchanged, and
    :func:`oracles.check_invariants` against the state's ``mu_S`` as it
    stood before its first checked event.  ``count`` is the number of
    events checked."""

    def __init__(self, apply_infection, apply_removal):
        self._apply_infection = apply_infection
        self._apply_removal = apply_removal
        self._mu_S0 = {}  # state -> its mu_S before its first checked event
        self.count = 0

    def infection(self, state, k, draws):
        before = self._before(state)
        j, l, p = self._apply_infection(state, k, draws)
        self._after(state, before, k - 2 - 2 * j - l - 2 * p, -l, "infection")
        return j, l, p

    def removal(self, state, level):
        before = self._before(state)
        out = self._apply_removal(state, level)
        self._after(state, before, -level, level, "removal")
        return out

    def _before(self, state):
        if state not in self._mu_S0:
            self._mu_S0[state] = state.mu_S.copy()
        return state.N_IS, state.N_RS, state.S + state.I + state.R

    def _after(self, state, before, d_IS, d_RS, event):
        if state.N_IS - before[0] != d_IS:
            raise StateCorruptionError(f"dN_IS mismatch on {event}")
        if state.N_RS - before[1] != d_RS:
            raise StateCorruptionError(f"dN_RS mismatch on {event}")
        if state.S + state.I + state.R != before[2]:
            raise StateCorruptionError(f"population not conserved on {event}")
        check_invariants(state, self._mu_S0[state])
        self.count += 1


@pytest.fixture
def checked_events(monkeypatch):
    """An :class:`EventChecker` installed around the simulator's events for
    the test's duration."""
    checker = EventChecker(simulation.apply_infection, simulation.apply_removal)
    monkeypatch.setattr(simulation, "apply_infection", checker.infection)
    monkeypatch.setattr(simulation, "apply_removal", checker.removal)
    return checker
