import sys
from pathlib import Path

import pytest

# bench/ holds the benchmark's workload pools and its independent checker
# (check.bareiss_det is the tests' determinant oracle)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))


def _rebind(monkeypatch, fn, wrapper):
    """Bind ``wrapper`` in place of ``fn`` in every linkimm module that holds it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "linkimm" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, wrapper)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` rebinds ``fn`` in every linkimm module that holds it.

    Returns the list that records the arguments of each call made through
    any of those bindings; the rebinding is undone when the test ends.
    """

    def count(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        _rebind(monkeypatch, fn, counted)
        return calls

    return count


@pytest.fixture
def record_results(monkeypatch):
    """``record_results(fn)`` rebinds ``fn`` like ``count_calls``.

    The list it returns records the result of each call instead.
    """

    def record(fn):
        results = []

        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.append(result)
            return result

        _rebind(monkeypatch, fn, recorded)
        return results

    return record
