import sysconfig
from pathlib import PurePath
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
    # a passing run's cover files: one per module, with no marked line
    for module in modules:
        (coverdir / f"linkimm.{module}.cover").write_text("    1: import sys\n")


def test_a_clean_cover_directory_passes(tmp_path, capsys):
    write_clean_covers(tmp_path, check_trace.MODULES)
    assert check_trace.check(tmp_path) == 0
    assert capsys.readouterr().out == ""


def test_a_library_module_without_a_cover_file_fails(tmp_path, capsys):
    assert "wu" in check_trace.MODULES and "__init__" in check_trace.MODULES
    write_clean_covers(tmp_path, [m for m in check_trace.MODULES if m != "wu"])
    assert check_trace.check(tmp_path) == 1
    assert "linkimm/wu.py has no linkimm.wu.cover" in capsys.readouterr().out


def test_a_marked_script_entry_point_fails(tmp_path, capsys):
    # tests run `python -m linkimm.cli` in process, so its last line is no exception
    write_clean_covers(tmp_path, check_trace.MODULES)
    (tmp_path / "linkimm.cli.cover").write_text(f"    1: import sys\n{check_trace.MARK}     sys.exit(main())\n")
    assert check_trace.check(tmp_path) == 1
    assert capsys.readouterr().out == "not run by any test: linkimm/cli.py:2: sys.exit(main())\n"


def test_a_cover_file_from_outside_the_package_fails(tmp_path, capsys):
    write_clean_covers(tmp_path, check_trace.MODULES)
    (tmp_path / "hypothesis.errors.cover").write_text("    1: import sys\n")
    assert check_trace.check(tmp_path) == 1
    assert "hypothesis.errors.cover" in capsys.readouterr().out


@pytest.mark.parametrize("library", [("purelib", "hypothesis", "errors.py"), ("stdlib", "json", "__init__.py")],
                         ids=lambda library: "/".join(library[1:]))
@pytest.mark.parametrize("library_first", [True, False], ids=["library-first", "package-first"])
def test_the_tracer_decides_by_path_not_by_basename(library, library_first):
    # trace's own decision is kept per basename, so whichever of the two
    # files came first decided for both; only the package file is traced
    where, *parts = library
    outside = str(PurePath(sysconfig.get_paths()[where], *parts))
    inside = str(check_trace.PACKAGE / parts[-1])
    tracer = check_trace.make_tracer()
    for filename in [outside, inside] if library_first else [inside, outside]:
        assert tracer.ignore.names(filename, PurePath(filename).stem) is (filename == outside)
