"""Run one ``anchorstat`` CLI invocation with every public package
function timed, then write the per-function spans as JSON.

    python3 perfbench/traced_cli.py SPANS.json T0 <anchorstat arguments...>

``T0`` is the parent's ``time.monotonic()`` just before it started this
process; the time from it to the call of ``anchorstat.cli.main`` is
reported as ``startup_s``. The package is not modified on disk: each
public function is replaced, in every loaded ``anchorstat`` module and
module-level dict that binds it, by a wrapper that passes ``*args,
**kwargs`` through, so moving a function or changing its signature needs
no change here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
import tracemalloc

# functions whose spans also record a tracemalloc peak
PEAK_FUNCTIONS = {"stattests.sign_flip_pvalue"}


class Tracer:
    """Per-function call counts, inclusive and self time, per-call
    durations, replicate counts (an ``R`` argument), file bytes (a
    ``path`` argument) and, for PEAK_FUNCTIONS, the tracemalloc peak."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.stack: list[list[float]] = []

    def wrap(self, name: str, func):
        sig = inspect.signature(func)
        wants_r = "R" in sig.parameters
        wants_path = "path" in sig.parameters
        peak = name in PEAK_FUNCTIONS
        st = self.stats.setdefault(name, {
            "calls": 0, "s": 0.0, "self_s": 0.0, "replicates": 0, "bytes": 0,
            "peak_mb": 0.0, "durations": [], "active": 0,
        })
        stack = self.stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            extra = None
            if wants_r or wants_path:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = bound.arguments
                except TypeError:
                    pass  # the call itself will raise
            started_tracing = peak and not tracemalloc.is_tracing()
            if started_tracing:
                tracemalloc.start()
            frame = [0.0]
            stack.append(frame)
            st["active"] += 1
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if started_tracing:
                    st["peak_mb"] = max(st["peak_mb"], tracemalloc.get_traced_memory()[1] / 1e6)
                    tracemalloc.stop()
                stack.pop()
                st["active"] -= 1
                if stack:
                    stack[-1][0] += dt
                st["calls"] += 1
                st["self_s"] += dt - frame[0]
                if st["active"] == 0:  # count recursion once in inclusive time
                    st["s"] += dt
                st["durations"].append(dt)
                if extra is not None:
                    if wants_r and isinstance(extra.get("R"), int):
                        st["replicates"] += extra["R"]
                    if wants_path:
                        try:
                            st["bytes"] += os.path.getsize(extra["path"])
                        except (OSError, TypeError, KeyError):
                            pass

        return wrapper

    def install(self) -> None:
        """Wrap every public function defined in the package, at every
        binding of it in a loaded package module."""
        import anchorstat

        for info in pkgutil.iter_modules(anchorstat.__path__):
            importlib.import_module(f"anchorstat.{info.name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "anchorstat" or n.startswith("anchorstat.")]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and obj.__name__ == attr):
                    short = mod.__name__.removeprefix("anchorstat.")
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                # ``wrappers`` holds each original, so an id cannot be reused
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            obj[key] = wrappers[id(val)][1]

    def dump(self, path: str, startup_s: float) -> None:
        functions = {
            name: {k: v for k, v in st.items() if k != "active"}
            for name, st in self.stats.items() if st["calls"]
        }
        with open(path, "w") as fh:
            json.dump({"startup_s": startup_s, "functions": functions}, fh)


def main() -> int:
    spans_path, t0, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["anchorstat.cli"]
    startup_s = time.monotonic() - t0
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path, startup_s)


if __name__ == "__main__":
    sys.exit(main())
