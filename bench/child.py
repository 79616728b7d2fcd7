"""Run one benchmark operation in a fresh interpreter.

    python3 bench/child.py cli <cltdioph argv...>
    python3 bench/child.py type_estimate <alpha spec> <n_max>

The package must be importable (``PYTHONPATH=src``).  Everything before
``cltdioph.cli`` has been imported counts as set-up; the operation itself
is ``cli.main(argv)`` or the library call ``dioph.type_estimate``.  The
last line of standard output is one JSON object with the CLOCK_MONOTONIC
instants at which the import and the operation ended, the host steal time
(``hoststeal``) at both, the exit code, the operation's own standard and
error output, and the peak resident set size (``ru_maxrss``, KiB).
"""

import time

from hoststeal import steal_seconds

import cltdioph.cli

IMPORTED = time.monotonic()
STEAL_IMPORTED = steal_seconds()

import contextlib  # noqa: E402  (after the timed import on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from cltdioph import dioph  # noqa: E402


def type_estimate_line(te) -> str:
    """The printed form of a TypeEstimate, 17 significant digits."""
    last_n = te.witnesses[-1][0] if te.witnesses else 0
    return (f"eta_hat {te.eta_hat:.17g} witnesses {len(te.witnesses)} "
            f"last_n {last_n} degenerate {int(te.degenerate)}")


def run(kind: str, args: list[str]) -> int:
    if kind == "cli":
        return cltdioph.cli.main(args)
    if kind == "type_estimate":
        te = dioph.type_estimate(dioph.AlphaSpec.parse(args[0]), int(args[1]))
        print(type_estimate_line(te))
        return 0
    raise ValueError(f"unknown operation kind {kind!r}")


def capture(kind: str, args: list[str]) -> tuple[int, str, str]:
    """Run one operation; its exit code, standard and error output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(kind, args)
    return rc, out.getvalue(), err.getvalue()


def main() -> None:
    rc, stdout, stderr = capture(sys.argv[1], sys.argv[2:])
    done = time.monotonic()
    steal_done = steal_seconds()
    print(json.dumps({"imported": IMPORTED, "done": done,
                      "steal_imported": STEAL_IMPORTED,
                      "steal_done": steal_done, "rc": rc,
                      "stdout": stdout, "stderr": stderr,
                      "maxrss_kb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss}))


if __name__ == "__main__":
    main()
