"""Set-up time of one fresh interpreter: `import fixedfield` plus loading
(parsing, group closures) of a workload's suites, before any check runs.

Reads {"src": <path>, "suites": [[name, text or null], ...]} as JSON on
stdin and prints the elapsed seconds.  A null text names a shipped suite.
"""

import json
import sys
import time


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    import fixedfield  # noqa: F401
    from fixedfield import suite

    for name, text in job["suites"]:
        if text is None:
            suite.load_suite(name)
        else:
            suite.parse_suite_text(text)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
