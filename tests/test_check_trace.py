from types import SimpleNamespace

import pytest

import check_trace


def fail(*args, **kwargs):
    pytest.fail("check_trace started a traced run")


@pytest.mark.parametrize("args", [[], ["--help"], ["cov", "more"]], ids=repr)
def test_a_bad_argument_list_prints_the_usage_and_runs_nothing(args, monkeypatch, capsys):
    monkeypatch.setattr(check_trace, "pytest", SimpleNamespace(main=fail))
    monkeypatch.setattr(check_trace, "trace", SimpleNamespace(Trace=fail))
    assert check_trace.main(["check_trace.py", *args]) == 2
    assert capsys.readouterr().out.startswith("usage: ")
