"""Spans around the program's public calls, recorded from outside it.

The benchmark does not instrument ``src/repro``: a :class:`Tracer` replaces
each named public function or method with a wrapper that records a span
(name, start, end, id, parent id, pid) and then calls the original.  Every
binding of a module-level function inside the ``repro`` package is patched,
so ``from .common import corrupted_copy`` call sites are covered too.

Spans are kept in memory.  Forked children (the fork-per-trial pool, serve
workers) inherit the wrappers and start with an empty buffer; they must
call :meth:`Tracer.flush` before they exit, because a pool child leaves
through ``os._exit`` and hands nothing back.  :meth:`Tracer.collect` then
reads the parent's buffer and every spool file.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
import weakref
from typing import Callable

#: ``describe(result, args, kwargs) -> dict`` adds counts to a span.
Describe = Callable[[object, tuple, dict], dict]


class Tracer:
    """In-memory span recorder whose wrappers survive ``fork``."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.root_pid = os.getpid()
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Callable[[object], None], object]] = []
        ref = weakref.ref(self)
        os.register_at_fork(
            after_in_child=lambda: ref() is not None and ref()._forked())

    def _forked(self) -> None:
        # the child's spans are its own; the parent's buffer stays with the
        # parent, and the child's first span has no parent to nest under
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record a span around a ``with`` block of benchmark code."""
        stack = self._stack()
        span_id = f"{os.getpid()}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"name": name, "id": span_id, "parent": parent,
                               "pid": os.getpid(), "start": start,
                               "end": end, **attrs})

    def traced(self, name: str, func: Callable,
               describe: Describe | None = None,
               after: Callable[[], None] | None = None) -> Callable:
        """*func* wrapped in a span; *after* runs once the span is stored."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                try:
                    result = func(*args, **kwargs)
                except BaseException:
                    attrs["error"] = True
                    raise
                if describe is not None:
                    attrs.update(describe(result, args, kwargs))
            if after is not None:
                after()
            return result

        return wrapper

    def counted(self, name: str, func: Callable) -> Callable:
        """*func* with a call counter and no span (for hot calls)."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts = tracer.counters
            counts[name] = counts.get(name, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a registry dict)
        with ``make(original)`` until :meth:`uninstall`."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
            self._patches.append((functools.partial(owner.__setitem__, attr),
                                  original))
            return
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((functools.partial(setattr, owner, attr),
                              original))

    def patch_method(self, cls: type, attr: str, name: str,
                     describe: Describe | None = None) -> None:
        self.patch(cls, attr, lambda f: self.traced(name, f, describe))

    def patch_function(self, func: Callable, name: str,
                       describe: Describe | None = None) -> None:
        """Patch every binding of module-level *func* in the ``repro``
        package, so call sites that imported the name see the wrapper."""
        wrapped = self.traced(name, func, describe)
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.patch(module, attr, lambda _f: wrapped)
                    bound += 1
        if not bound:
            raise LookupError(f"{func.__qualname__} is bound nowhere in repro")

    def patch_counter(self, cls: type, attr: str, name: str) -> None:
        self.patch(cls, attr, lambda f: self.counted(name, f))

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            restore, original = self._patches.pop()
            restore(original)

    # -- output ---------------------------------------------------------

    def flush_in_child(self) -> None:
        """Spool this process's spans if it is a forked child, which may
        exit at any moment."""
        if os.getpid() != self.root_pid:
            self.flush()

    def flush(self) -> None:
        """Append this process's spans and counters to its spool file."""
        if not self.spans and not self.counters:
            return
        os.makedirs(self.spool_dir, exist_ok=True)
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            for name, value in self.counters.items():
                handle.write(json.dumps({"counter": name, "value": value,
                                         "pid": os.getpid()}) + "\n")
        self.spans = []
        self.counters = {}

    def collect(self) -> tuple[list[dict], dict[str, int]]:
        """This process's spans plus every spooled child's, and the summed
        counters; the buffers and spool are emptied."""
        spans, counters = self.spans, dict(self.counters)
        self.spans, self.counters = [], {}
        if os.path.isdir(self.spool_dir):
            for name in sorted(os.listdir(self.spool_dir)):
                path = os.path.join(self.spool_dir, name)
                with open(path, encoding="utf-8") as handle:
                    for line in handle:
                        record = json.loads(line)
                        if "counter" in record:
                            counters[record["counter"]] = (
                                counters.get(record["counter"], 0)
                                + record["value"])
                        else:
                            spans.append(record)
                os.remove(path)
        return spans, counters
