"""Print every line of src/fixedfield that a pytest run never executes.

    python tests/line_coverage.py [pytest arguments]

With no arguments it runs the tier-1 suite (every test under tests/).  The
run happens in this process under a sys.settrace line tracer that records
the lines executed in src/fixedfield/*.py.  An executable line is one that
the compiled module maps an instruction to.  Each one that never ran is
printed as path:line and its text, then the missed count per file and in
total.  The exit code is pytest's.

Tracing every line makes the run about five times slower than plain
pytest, so this file is not named test_*.py and pytest does not collect it.
Code that tests run in a subprocess is not seen.
"""

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fixedfield"


def executable_lines(path: Path) -> set:
    """The lines that compiling path maps an instruction to, in every
    function and class body too."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(argv) -> tuple:
    """(pytest's exit code, {path: the lines of path that ran})."""
    ran = {str(p): set() for p in SRC.glob("*.py")}
    by_name = {}  # co_filename -> its set in ran, or None outside src/fixedfield

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(os.path.realpath(name))
        lines = by_name[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    import pytest

    # the package under test, here and in the subprocesses tests start
    sys.path.insert(0, str(SRC.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv) -> int:
    code, ran = run_traced(argv)
    total = 0
    counts = []
    for name in sorted(ran):
        path = Path(name)
        text = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(executable_lines(path) - ran[name])
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        counts.append(f"{path.name} {len(missed)}")
        total += len(missed)
    print(f"missed {total} lines: " + ", ".join(counts))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
