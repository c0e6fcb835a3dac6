"""Outside-in span tracer for one rotknot CLI job.

The tracer never edits the package: it replaces each public function in
every ``rotknot.*`` module namespace that imported it, and the arithmetic
and public methods of ``Cyc`` on the class, with a timing wrapper.  Spans
are aggregated in memory per (parent span, span) edge, so self time is a
span's duration minus the time its child spans cover.

Run as a script it executes one CLI job in this fresh interpreter and
prints a single JSON object on its own stdout; the job's stdout and
stderr are captured and returned inside that object, so trace data never
mixes into the measured output::

    python3 bench/spans.py traced enumerate --p 7 --q 5
    python3 bench/spans.py plain classify --p 3 --q 2 --b-anchor 1,0
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time
import traceback
from collections import Counter
from math import lcm
from pathlib import Path

# Cyc dunders that carry arithmetic or identity work; the public methods
# are wrapped as well.  Construction and repr stay unwrapped.
CYC_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
    "__eq__", "__hash__",
}


class Tracer:
    """Aggregated spans keyed by (parent name, name): [calls, total_s, self_s]."""

    def __init__(self):
        self.edges: dict[tuple[str | None, str], list] = {}
        self.mul_levels: Counter = Counter()
        self.mixed_level_muls = 0
        self._stack: list[list] = []

    def wrap(self, name: str, fn, hook=None):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = edges.get((parent, name))
                if rec is None:
                    rec = edges[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        return functools.update_wrapper(wrapper, fn)

    def _count_mul(self, a, b=None, *rest):
        other_level = getattr(b, "level", None)
        if isinstance(other_level, int):
            self.mul_levels[lcm(a.level, other_level)] += 1
            if other_level != a.level:
                self.mixed_level_muls += 1
        else:
            self.mul_levels[a.level] += 1

    def install(self) -> None:
        """Wrap every public rotknot function and the Cyc methods."""
        import rotknot
        from rotknot.exactnum import Cyc

        modules = [
            importlib.import_module(f"rotknot.{info.name}")
            for info in pkgutil.iter_modules(rotknot.__path__)
            if not info.name.startswith("_")
        ]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not callable(value):
                    continue
                if not inspect.isfunction(inspect.unwrap(value)):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith("rotknot."):
                    continue
                if id(value) not in wrapped:
                    span = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                    wrapped[id(value)] = self.wrap(span, value)
                setattr(module, attr, wrapped[id(value)])
        for attr, value in list(vars(Cyc).items()):
            if not inspect.isfunction(value):
                continue
            if attr.startswith("_") and attr not in CYC_DUNDERS:
                continue
            hook = self._count_mul if attr in ("__mul__", "__rmul__") else None
            setattr(Cyc, attr, self.wrap(f"exactnum.Cyc.{attr}", value, hook))

    def to_json(self) -> dict:
        return {
            "edges": [
                [parent, name, calls, total, self_s]
                for (parent, name), (calls, total, self_s) in sorted(
                    self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            ],
            "mul_levels": {str(k): v for k, v in sorted(self.mul_levels.items())},
            "mixed_level_muls": self.mixed_level_muls,
        }


def run_job(argv: list[str], traced: bool) -> dict:
    """Run one CLI job in this interpreter; time only the call to main()."""
    from rotknot import cli

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    main = cli.main  # looked up after install, so it is the wrapped one
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a result to report, not to hide
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - t0
    return {
        "code": code,
        "seconds": seconds,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "trace": tracer.to_json() if tracer else None,
    }


def main(args: list[str]) -> int:
    if not args or args[0] not in ("traced", "plain"):
        print("usage: spans.py {traced|plain} <rotknot arguments>", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    result = run_job(args[1:], args[0] == "traced")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
