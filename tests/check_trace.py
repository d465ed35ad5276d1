"""Run tier-1 under the stdlib ``trace`` module and fail on any library line it never runs.

From the repository root:

    python tests/check_trace.py cov

runs ``pytest -q`` in this process under ``trace.Trace``, which traces a
file exactly when its path lies under ``src/linkimm``, and writes one
``.cover`` file per traced module into ``cov``.  ``trace`` marks each line
it never saw run with ``>>>>>>`` in ``cov/linkimm.<module>.cover``.  Every
module of ``src/linkimm`` must have its ``.cover`` file, no line may be
marked, and ``cov`` may hold no other ``.cover`` file.  Exits 1, listing
what it found, when pytest fails or when any of these rules breaks, and 2,
printing its usage and running nothing, unless it gets exactly one
argument that does not start with ``-``.
"""

import os
import pathlib
import sys
import trace

import pytest

MARK = ">>>>>>"
ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "linkimm"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


class OutsidePackage(dict):
    """``trace``'s ignore decision, kept by full path: a file is traced exactly when it lies under src/linkimm.

    ``trace``'s own ``_Ignore`` keeps one answer per module basename, so the
    first ``errors.py`` or ``__init__.py`` it meets decides for all others.
    """

    def __missing__(self, filename):
        ignored = self[filename] = not pathlib.Path(os.path.realpath(filename)).is_relative_to(PACKAGE)
        return ignored

    def names(self, filename, modulename):
        return self[filename]


def make_tracer() -> trace.Trace:
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = OutsidePackage()
    return tracer


def check(coverdir: pathlib.Path) -> int:
    covers = {m: f"linkimm.{m}.cover" for m in MODULES}
    written = {path.name for path in coverdir.glob("*.cover")}
    problems = [f"traced outside src/linkimm: {name} in {coverdir}" for name in sorted(written - set(covers.values()))]
    for m, name in covers.items():
        if name not in written:
            problems.append(f"never traced: linkimm/{m}.py has no {name} in {coverdir}")
            continue
        lines = (coverdir / name).read_text(encoding="utf-8").splitlines()
        problems += [f"not run by any test: linkimm/{m}.py:{number}: {line[len(MARK):].strip()}"
                     for number, line in enumerate(lines, 1) if line.startswith(MARK)]
    for line in problems:
        print(line)
    return 1 if problems else 0


def main(argv) -> int:
    if len(argv) != 2 or argv[1].startswith("-"):
        print("usage: python tests/check_trace.py COVERDIR")
        return 2
    coverdir = pathlib.Path(argv[1])
    # trace names each .cover file by its module through sys.path when it
    # writes them, after pytest has taken its own ``pythonpath`` entry away
    sys.path.insert(0, str(ROOT / "src"))
    tracer = make_tracer()
    failed = tracer.runfunc(pytest.main, ["-q"])
    tracer.results().write_results(show_missing=True, summary=False, coverdir=str(coverdir))
    if failed:
        print(f"tier-1 failed under trace: pytest exit code {int(failed)}")
    return 1 if check(coverdir) or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
