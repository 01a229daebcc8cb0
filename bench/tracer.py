"""Spans around calls into the program's public functions, from outside.

:class:`Tracer` wraps every public function of the given modules and
rebinds each name wherever the program holds it: the defining module, every
module that imported it by name, and module-level registries such as
``verify.GROUPS``.  Internal calls made through module globals are caught
too, so one ``dirac_bracket`` call shows its ``graded_poisson`` children.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts the original
objects back.

A span records its function, start, end, parent and op id in flat arrays
that stay in memory until the run ends.  A call made on a thread with no
open span (a worker of the CLI's sweep pool) is parented to the innermost
open span of the thread that started the op.
"""

import functools
import gzip
import inspect
import threading
import time
from array import array
from collections.abc import Callable, Iterable
from types import ModuleType


class Tracer:
    """Records one span per call to a wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.func = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.raised = array("b")
        self.op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner: list[int] = []
        self._bindings: list[tuple[dict, object, Callable, Callable]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id: int) -> None:
        """Attribute later spans to ``op_id``; the calling thread owns it."""
        self.op_id = op_id
        self._owner = self._stack()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        fid = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = self._owner
                parent = owner[-1] if owner else -1
            with self._lock:
                index = len(self.func)
                self.func.append(fid)
                self.parent.append(parent)
                self.op.append(self.op_id)
                self.start.append(0)
                self.end.append(0)
                self.raised.append(0)
            stack.append(index)
            self.start[index] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[index] = 1
                raise
            finally:
                self.end[index] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self, modules: Iterable[ModuleType], namespaces: Iterable[ModuleType]) -> None:
        """Wrap the public functions of ``modules`` and rebind them.

        The first call wraps and finds every binding; later calls rebind the
        same wrappers, so spans keep accumulating across install/uninstall.

        Args:
            modules: Modules whose own public functions are wrapped; a
                span is named ``<module>.<function>`` by the module's last
                dotted component.
            namespaces: Modules whose globals, and whose module-level dicts,
                are searched for the original objects and rebound.
        """
        if not self._bindings:
            wrapped: dict[int, Callable] = {}
            for module in modules:
                short = module.__name__.rsplit(".", 1)[-1]
                for attr, value in vars(module).items():
                    if (
                        inspect.isfunction(value)
                        and not attr.startswith("_")
                        and value.__module__ == module.__name__
                    ):
                        wrapped[id(value)] = self.wrap(f"{short}.{attr}", value)
            for namespace in namespaces:
                tables = [vars(namespace)] + [
                    value for attr, value in vars(namespace).items()
                    if isinstance(value, dict) and not attr.startswith("__")
                ]
                for table in tables:
                    for key, value in table.items():
                        if id(value) in wrapped:
                            self._bindings.append((table, key, value, wrapped[id(value)]))
        for table, key, _, wrapper in self._bindings:
            table[key] = wrapper

    def uninstall(self) -> None:
        """Put every rebound name back to its original object."""
        for table, key, original, _ in self._bindings:
            table[key] = original

    def self_times(self) -> list[int]:
        """Each span's duration minus the part of it its children cover.

        Children on pool threads may overlap one another, so the covered
        part is the measure of the union of the children's intervals.
        """
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        children = sorted(
            (i for i in range(len(parent)) if parent[i] >= 0),
            key=lambda i: (parent[i], start[i]),
        )
        current, reach = -1, 0
        for i in children:
            p = parent[i]
            if p != current:
                current, reach = p, start[p]
            lo = max(start[i], reach)
            hi = min(end[i], end[p])
            if hi > lo:
                own[p] -= hi - lo
                reach = hi
        return own

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
            handle.write("op,name,start_ns,end_ns,parent,raised\n")
            for i in range(len(self.func)):
                handle.write(
                    f"{self.op[i]},{self.names[self.func[i]]},{self.start[i]},"
                    f"{self.end[i]},{self.parent[i]},{self.raised[i]}\n"
                )
