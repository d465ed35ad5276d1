"""Run tier-1 under the stdlib ``trace`` module and fail on any library line it never runs.

From the repository root:

    python tests/check_trace.py cov

runs ``pytest -q`` in this process under ``trace.Trace``, which ignores
the standard library, site-packages, ``tests`` and ``bench``, so only
``src/linkimm`` is traced, and writes one ``.cover`` file per traced
module into ``cov``.  ``trace`` marks each line it never saw run with
``>>>>>>`` in ``cov/linkimm.<module>.cover``.  Every module of
``src/linkimm`` but ``__init__`` must have its ``.cover`` file, every
marked line must be in ``ALLOWED``, matched by module and stripped line
content, and every entry of ``ALLOWED`` must still be marked, so the list
stays exact.  Exits 1, listing what it found, when pytest fails or when
any of these rules breaks, and 2, printing its usage and running nothing,
unless it gets exactly one argument that does not start with ``-``.
"""

import pathlib
import sys
import sysconfig
import trace

import pytest

ALLOWED = {
    # the script entry point: tests run it in a `python -m linkimm.cli`
    # subprocess, which the trace does not follow
    ("cli", "sys.exit(main())"),
}

MARK = ">>>>>>"

ROOT = pathlib.Path(__file__).resolve().parents[1]

# trace decides once per module basename whether to ignore a file, and the
# first file of that name it meets decides for all: so hypothesis/errors.py
# seen first would drop linkimm/errors.py without a word, and an earlier
# __init__ of the standard library always drops linkimm/__init__.py, which
# tests/test_modules.py keeps free of anything but imports and assignments
MODULES = sorted(path.stem for path in (ROOT / "src" / "linkimm").glob("*.py") if path.stem != "__init__")


def untraced(coverdir: pathlib.Path) -> list:
    """(module, line number, stripped line) of each marked line of a linkimm module."""
    found = []
    for path in sorted(coverdir.glob("linkimm.*.cover")):
        module = path.name[len("linkimm."):-len(".cover")]
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if line.startswith(MARK):
                found.append((module, number, line[len(MARK):].strip()))
    return found


def check(coverdir: pathlib.Path) -> int:
    missing = [m for m in MODULES if not (coverdir / f"linkimm.{m}.cover").is_file()]
    for m in missing:
        print(f"never traced: linkimm/{m}.py has no linkimm.{m}.cover in {coverdir}")
    found = untraced(coverdir)
    unexpected = [f"linkimm/{m}.py:{n}: {text}" for m, n, text in found if (m, text) not in ALLOWED]
    marked = {(m, text) for m, _, text in found}
    stale = [f"linkimm/{m}.py: {text}" for m, text in sorted(ALLOWED - marked)]
    for line in unexpected:
        print(f"not run by any test: {line}")
    for line in stale:
        print(f"allowed but now run, drop it from ALLOWED: {line}")
    return 1 if missing or unexpected or stale else 0


def main(argv) -> int:
    if len(argv) != 2 or argv[1].startswith("-"):
        print("usage: python tests/check_trace.py COVERDIR")
        return 2
    coverdir = pathlib.Path(argv[1])
    # trace names each .cover file by its module through sys.path when it
    # writes them, after pytest has taken its own ``pythonpath`` entry away
    sys.path.insert(0, str(ROOT / "src"))
    paths = sysconfig.get_paths()
    ignoredirs = [paths["stdlib"], paths["purelib"], str(ROOT / "tests"), str(ROOT / "bench")]
    tracer = trace.Trace(count=1, trace=0, ignoredirs=ignoredirs)
    failed = tracer.runfunc(pytest.main, ["-q"])
    tracer.results().write_results(show_missing=True, summary=False, coverdir=str(coverdir))
    if failed:
        print(f"tier-1 failed under trace: pytest exit code {int(failed)}")
    return 1 if check(coverdir) or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
