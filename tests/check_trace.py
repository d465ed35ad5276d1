"""Fail on any library line that the tier-1 suite never runs.

Run the suite under the stdlib ``trace`` module, then this check on its
output directory:

    STD=$(python -c "import sysconfig; print(sysconfig.get_paths()['stdlib'])")
    SITE=$(python -c "import sysconfig; print(sysconfig.get_paths()['purelib'])")
    PYTHONPATH=src python -m trace --count --missing --coverdir cov \\
        --ignore-dir "$STD:$SITE" --module pytest -q
    python tests/check_trace.py cov

``trace`` marks each line it never saw run with ``>>>>>>`` in
``cov/linkimm.<module>.cover``.  Every marked line must be in ``ALLOWED``,
matched by module and stripped line content, and every entry of
``ALLOWED`` must still be marked, so the list stays exact.  Exits 1 and
lists the lines otherwise.
"""

import pathlib
import sys

ALLOWED = {
    # a closed stdout and the script entry point: tests run these in a
    # `python -m linkimm.cli` subprocess, which the trace does not follow
    ("cli", "except BrokenPipeError:"),
    ("cli", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"),
    ("cli", "return 1"),
    ("cli", "sys.exit(main())"),
}

MARK = ">>>>>>"


def untraced(coverdir: pathlib.Path) -> list:
    """(module, line number, stripped line) of each marked line of a linkimm module."""
    found = []
    for path in sorted(coverdir.glob("linkimm.*.cover")):
        module = path.name[len("linkimm."):-len(".cover")]
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if line.startswith(MARK):
                found.append((module, number, line[len(MARK):].strip()))
    return found


def main(argv) -> int:
    coverdir = pathlib.Path(argv[1])
    if not any(coverdir.glob("linkimm.*.cover")):
        print(f"no linkimm.*.cover files in {coverdir}")
        return 1
    found = untraced(coverdir)
    unexpected = [f"linkimm/{m}.py:{n}: {text}" for m, n, text in found if (m, text) not in ALLOWED]
    marked = {(m, text) for m, _, text in found}
    stale = [f"linkimm/{m}.py: {text}" for m, text in sorted(ALLOWED - marked)]
    for line in unexpected:
        print(f"not run by any test: {line}")
    for line in stale:
        print(f"allowed but now run, drop it from ALLOWED: {line}")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
