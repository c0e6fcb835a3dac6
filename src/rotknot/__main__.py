"""Program entry of `python -m rotknot` and of the installed `rotknot`
script.

`main` runs `cli.main` on `sys.argv` and returns its exit code.  Before
the interpreter shuts down it moves every live object out of the garbage
collector's passes (`gc.freeze`), so shutdown no longer walks them all.
Shutdown still flushes stdout and stderr, runs atexit handlers and tears
modules down.  In dev mode (`python -X dev`) nothing is frozen, so the
exit-time collection still finds, and warns about, a file leaked in a
reference cycle.

`cli.main` itself never freezes, so tests and library callers that run it
in their own process keep a collector that sees everything.
"""

import gc
import sys

from . import cli


def main() -> int:
    try:
        return cli.main()
    finally:
        if not sys.flags.dev_mode:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
