"""List the error sites of `src/orbitcov` that the Tier-1 tests never run.

Runs the Tier-1 suite in this process under the standard library's
`trace` line counter, the calling thread and every thread it starts
alike, then prints each error site of `src/orbitcov` that no test
executed, as `path:line: text`. An error site is a `raise` statement,
or the first statement of an `except` handler, such as the command
line's print-and-exit on an output directory it cannot create. Only the
package is counted: the standard library, site-packages and the tests
themselves run untraced, and the tests that run the command line in a
child process count for nothing, since the child is not traced.

Not collected by pytest (no `test_` prefix). Tracing makes the suite
about three times slower, so this is a manual tool, not a CI step:

    python tests/unreached_raises.py [extra pytest arguments]

Exits 0 when every error site ran, 1 when some did not, or with pytest's own
status when the suite itself fails.
"""

from __future__ import annotations

import ast
import os
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbitcov"


def error_sites(path: Path) -> list[tuple[int, str]]:
    """(line number, text) of every error site in `path`: the first line
    of each `raise` statement, and of the first statement of each
    `except` handler, which is where an error the code catches exits."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    numbers = set()
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, ast.Raise):
            numbers.add(node.lineno)
        elif isinstance(node, ast.ExceptHandler):
            numbers.add(node.body[0].lineno)
    return [(number, lines[number - 1].strip()) for number in sorted(numbers)]


def main(argv: list[str]) -> int:
    # the suite imports the package from src, and so do the command-line
    # runs it starts in child processes
    src = str(ROOT / "src")
    sys.path[:0] = [src, str(ROOT / "tests")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest

    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix, str(ROOT / "tests")])
    args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "--rootdir", str(ROOT)]
    scope = {"pytest": pytest, "args": args + argv + [str(ROOT / "tests")]}
    tracer.runctx("status = pytest.main(args)", scope, scope)
    status = scope["status"]
    ran = {(Path(filename).resolve(), line) for filename, line in tracer.results().counts}
    unreached = [
        f"{path.relative_to(ROOT)}:{number}: {text}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, text in error_sites(path)
        if (path.resolve(), number) not in ran
    ]
    print(f"{len(unreached)} error site(s) in {PACKAGE.relative_to(ROOT)} never ran")
    print("\n".join(unreached))
    if status != 0:
        return int(status)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
