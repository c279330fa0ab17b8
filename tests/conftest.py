"""Fixtures shared by the planning tests."""
import sys

import pytest

from repro.profiling import fd


@pytest.fixture
def coded(monkeypatch):
    """Every column coding of the test, as ``(caller, length)``.

    The caller is ``of`` when ``fd.Cube.of`` codes a column's rows, and
    ``recoded`` when a fold codes a column's rewritten values. A
    re-coding must see only the column's distinct values, extended by
    at most one other column's (a swap's or an FD repair's): never the
    rows.
    """
    calls = []

    def encode(values, _orig=fd.encode):
        caller = sys._getframe(1)
        name = caller.f_code.co_name
        if name == "recoded":
            cube, j = caller.f_locals["self"], caller.f_locals["j"]
            assert (len(values) - len(cube.values[j])
                    in {0, *map(len, cube.values)})
        calls.append((name, len(values)))
        return _orig(values)

    monkeypatch.setattr(fd, "encode", encode)
    return calls
