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


def write_clean_covers(coverdir, modules):
    # a passing run's cover files: only the allowed line of cli is marked
    for module in modules:
        lines = [f"{check_trace.MARK} {text}" for m, text in check_trace.ALLOWED if m == module]
        (coverdir / f"linkimm.{module}.cover").write_text("\n".join(["    1: import sys", *lines]) + "\n")


def test_a_clean_cover_directory_passes(tmp_path, capsys):
    write_clean_covers(tmp_path, check_trace.MODULES)
    assert check_trace.check(tmp_path) == 0
    assert capsys.readouterr().out == ""


def test_a_library_module_without_a_cover_file_fails(tmp_path, capsys):
    # trace can drop a whole module when a file of the same basename in an
    # ignored directory comes first; that must not pass as fully covered
    assert "wu" in check_trace.MODULES and "__init__" not in check_trace.MODULES
    write_clean_covers(tmp_path, [m for m in check_trace.MODULES if m != "wu"])
    assert check_trace.check(tmp_path) == 1
    assert "linkimm/wu.py has no linkimm.wu.cover" in capsys.readouterr().out
