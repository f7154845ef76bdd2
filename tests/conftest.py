import pytest

from polarsim.sc import _PairBank


@pytest.fixture
def top_pairs(monkeypatch):
    """A list that receives a copy of the top-stage pairs `_PairBank.refresh`
    returns at each symbol of every decode, frozen symbols included."""
    seen = []
    refresh = _PairBank.refresh

    def recording_refresh(self, j):
        pairs = refresh(self, j)
        seen.append(pairs.copy())
        return pairs

    monkeypatch.setattr(_PairBank, "refresh", recording_refresh)
    return seen
