"""Harness-side span tracer: time calls into each layer's public
functions without editing the program.

A :class:`Tracer` patches callables, named by dotted path, with
wrappers that push a frame on an in-memory span stack.  When a span
ends, its duration minus the time its child spans covered is added to
its layer's *self* time, so every instant inside the root span is
counted for exactly one layer (or for none: ``self_s[None]``), and
calls made outside it (construction, teardown) for nothing:

    sum(self_s.values()) == root span duration.

Calls are counted at the same boundary.  Callables handed *to* a
wrapped function (a simulator callback, a batch sink, a frame's
``deliver``) can be wrapped too, each in a span named by the module
that defines it — that is how event-driven work, which never passes
through a layer's public entry points, is attributed.

Only totals are kept; they are read out after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

_CALLBACK_TYPES = frozenset(
    (types.FunctionType, types.MethodType, functools.partial)
)
_IS_SPAN = object()


class Target(NamedTuple):
    """One callable to wrap."""

    #: ``package.module.Class.method`` or ``package.module.function``.
    path: str
    layer: str
    #: Wrap function-valued arguments in spans of their own.
    callbacks: bool = False
    #: ``measure(args, result) -> int``, summed over the calls: bytes
    #: encoded, non-empty results.
    measure: Optional[Callable[[tuple, object], int]] = None


def resolve(path: str):
    """``(owner, attribute)`` for a dotted path, or ``None``.

    The longest importable prefix is the module; the rest is an
    attribute chain.  A method inherited by the named class resolves to
    the class that defines it, so patching never shadows.
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
        except AttributeError:
            return None
        attr = parts[-1]
        if isinstance(owner, type):
            for klass in owner.__mro__:
                if attr in vars(klass):
                    return klass, attr
            return None
        return (owner, attr) if hasattr(owner, attr) else None
    return None


class Tracer:
    """Span stack, per-layer self time, call counts and patches."""

    def __init__(self, layer_of_module: Callable[[Optional[str]], Optional[str]]):
        self._layer_of_module = layer_of_module
        #: Layer of every code object seen as a callback (``_IS_SPAN``
        #: for the span wrapper's own).
        self._code_layers: Dict[object, object] = {}
        #: ``(layer, callable or label kind) -> [self_s, calls, raised,
        #: measured]``; a span adds to its cell in place.
        self._cells: Dict[Tuple[Optional[str], str], list] = {}
        self.resolved: List[str] = []
        self.missing: List[str] = []
        self.root_s = 0.0
        self._root_self: Dict[Optional[str], float] = defaultdict(float)
        self._patches: List[Tuple[object, str, object]] = []
        # The span stack is its depth (0: no root span open) and, per
        # depth, the seconds the open span's children have covered.
        # Preallocated floats on purpose: a list or a closure per span
        # is a tracked object per span, and on a scenario holding
        # millions of objects the extra cyclic-GC passes that provokes
        # cost more than all the timing.
        depth = self._depth = [0]
        covered = self._covered = [0.0] * (sys.getrecursionlimit() + 2)
        clock = time.perf_counter

        def run(cell, fn, /, *args, **kwargs):
            at = depth[0]
            if not at:  # outside the root span: construction, teardown
                return fn(*args, **kwargs)
            at += 1
            depth[0] = at
            covered[at] = 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                cell[2] += 1
                raise
            finally:
                duration = clock() - start
                depth[0] = at - 1
                cell[0] += duration - covered[at]
                cell[1] += 1
                covered[at - 1] += duration

        self._run = run

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    @contextmanager
    def root(self, layer: Optional[str] = None):
        """The outermost span; its self time is ``layer``'s."""
        self._depth[0] = 1
        self._covered[1] = 0.0
        start = time.perf_counter()
        try:
            yield
        finally:
            self.root_s = time.perf_counter() - start
            self._depth[0] = 0
            self._root_self[layer] += self.root_s - self._covered[1]

    def _cell(self, layer: Optional[str], name: str) -> list:
        return self._cells.setdefault((layer, name), [0.0, 0, 0, 0])

    def wrap(
        self,
        fn: Callable,
        layer: Optional[str],
        name: str,
        callbacks: bool = False,
        measure: Optional[Callable[[tuple, object], int]] = None,
    ) -> Callable:
        """``fn`` inside a span of ``layer``, counted under ``name``: a
        plain function, so that it binds as a method when patched onto
        a class."""
        run = self._run
        cell = self._cell(layer, name)
        wrap_callbacks = self._wrap_callbacks

        def span(*args, **kwargs):
            if callbacks:
                args, kwargs = wrap_callbacks(layer, args, kwargs)
            if measure is None:
                return run(cell, fn, *args, **kwargs)
            result = run(cell, fn, *args, **kwargs)
            cell[3] += measure(args, result)
            return result

        span._spine_span = True
        return span

    def _wrap_callbacks(self, caller_layer, args, kwargs):
        """Replace function-valued arguments by spans named after the
        module that defines them, counted under the ``label`` keyword's
        last word (``vehicle-12-produce`` → ``produce``) or the
        function's name.  A callback of the caller's own layer is that
        layer's internals and stays bare."""
        for index, value in enumerate(args):
            if type(value) in _CALLBACK_TYPES:
                span = self._callback_span(caller_layer, value, kwargs.get("label"))
                if span is not value:
                    args = args[:index] + (span,) + args[index + 1:]
        for key, value in kwargs.items():
            if type(value) in _CALLBACK_TYPES:
                span = self._callback_span(caller_layer, value, kwargs.get("label"))
                if span is not value:
                    kwargs = {**kwargs, key: span}
        return args, kwargs

    def _callback_span(self, caller_layer, callback, label):
        inner = callback
        if type(callback) is functools.partial:
            if callback.func is self._run:
                return callback
            inner = callback.func
        function = getattr(inner, "__func__", inner)  # unbind a method
        # Keyed by code object: every closure a ``def`` makes shares it,
        # and so does every span this tracer makes.
        code = getattr(function, "__code__", None)
        try:
            layer = self._code_layers[code]
        except KeyError:
            layer = self._code_layers[code] = (
                _IS_SPAN
                if getattr(function, "_spine_span", False)
                else self._layer_of_module(getattr(function, "__module__", None))
            )
        if layer is _IS_SPAN or layer == caller_layer:
            return callback
        if label is not None:
            kind = label.rsplit("-", 1)[-1]
        else:
            kind = getattr(function, "__name__", "callback")
        return functools.partial(self._run, self._cell(layer, kind), callback)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self, targets) -> None:
        """Patch every resolvable target; list the others as missing."""
        for target in targets:
            found = resolve(target.path)
            if found is None:
                self.missing.append(target.path)
                continue
            owner, attr = found
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not callable(fn):  # a property, say
                self.missing.append(target.path)
                continue
            self.resolved.append(target.path)
            if getattr(fn, "_spine_span", False):
                continue  # two paths naming one inherited method
            wrapped = self.wrap(
                fn,
                target.layer,
                attr,
                callbacks=target.callbacks,
                measure=target.measure,
            )
            functools.update_wrapper(wrapped, fn)
            self._patch(owner, attr, raw, kind(wrapped) if kind else wrapped)
            if isinstance(owner, types.ModuleType):
                # ``from module import function`` bound the original in
                # every importer; patch those names too.
                for module in list(sys.modules.values()):
                    if (
                        module is not owner
                        and getattr(module, "__name__", "").startswith("repro")
                        and vars(module).get(attr) is raw
                    ):
                        self._patch(module, attr, raw, wrapped)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def layer_resolved(self, layer: str, targets) -> bool:
        """Whether any of ``layer``'s targets could be wrapped."""
        return any(
            target.layer == layer and target.path in self.resolved
            for target in targets
        )

    def _total(self, index: int, layer, names=()):
        return sum(
            cell[index]
            for (cell_layer, name), cell in self._cells.items()
            if cell_layer == layer and (not names or name in names)
        )

    def self_s(self, layer: Optional[str]) -> float:
        """Seconds inside ``layer``'s spans and inside no span below."""
        return self._total(0, layer) + self._root_self.get(layer, 0.0)

    def calls(self, layer: Optional[str], *names: str) -> int:
        """Calls of ``layer``'s callables (all, or the named ones)."""
        return self._total(1, layer, names)

    def raised(self, layer: Optional[str]) -> int:
        """Calls of ``layer``'s callables that raised."""
        return self._total(2, layer)

    def measured(self, layer: Optional[str], *names: str) -> int:
        """Sum of ``Target.measure`` over the named callables."""
        return self._total(3, layer, names)

    def layers(self):
        return {layer for layer, _name in self._cells} | set(self._root_self)
