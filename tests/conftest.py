import pytest

from polarsim.sc import _PairBank


@pytest.fixture
def top_pairs(monkeypatch):
    """A list that receives a copy of the pairs `_PairBank.refresh` returns
    at each step of every decode. A decode given a `trace_hook` steps one
    symbol at a time, so it records each symbol's top-stage pairs, frozen
    symbols included."""
    seen = []
    refresh = _PairBank.refresh

    def recording_refresh(self, j, *args):
        pairs = refresh(self, j, *args)
        seen.append(pairs.copy())
        return pairs

    monkeypatch.setattr(_PairBank, "refresh", recording_refresh)
    return seen
