"""Per-layer tracing of the library, installed from outside it.

The layers are the modules ``labels``, ``tree``, ``preform``, ``form``,
``game``, ``transforms``, ``documents`` and ``cli``.  :meth:`Tracer.install`
wraps every function named in a layer's ``__all__``, plus
``Game.play_with_members`` and the CLI's command handlers, and rebinds
each wrapper at every place the original is bound inside ``ncgames.*``.
Calls from one module into another therefore go through the wrappers
too, and nothing under ``src/`` changes.

Each wrapper records a span (name, start, end, parent span, job) in
memory; :meth:`Tracer.write` writes them out once the run is over.
``label_key`` and ``token_key`` are called tens of thousands of times
per job, so they are counted but get no span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from typing import Dict, List

LAYERS = ("labels", "tree", "preform", "form", "game", "transforms", "documents", "cli")
COUNT_ONLY = ("labels.label_key", "labels.token_key")
PARSERS = ("documents.parse_game", "documents.parse_morphism", "documents.parse_witness")
SERIALIZERS = ("documents.serialize_game", "documents.serialize_morphism", "documents.serialize_witness")


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


class Tracer:
    """Spans and counters of one traced workload process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (name, start, end, parent index or -1, job)
        self.stack: List[int] = []
        self.counts: Dict[str, List[int]] = {name: [0] for name in COUNT_ONLY}
        self.extras = {"strategies_enumerated": 0, "bytes_read": 0, "bytes_written": 0, "witnesses_found": 0}
        self.job = -1

    def _hook(self, name: str):
        extras = self.extras
        if name == "preform.grand_strategies":
            def hook(args, result):
                extras["strategies_enumerated"] += len(result)
        elif name in PARSERS:
            def hook(args, result):
                extras["bytes_read"] += _text_bytes(args[0])
        elif name in SERIALIZERS:
            def hook(args, result):
                extras["bytes_written"] += _text_bytes(result)
        elif name == "game.find_isomorphism":
            def hook(args, result):
                extras["witnesses_found"] += result is not None
        else:
            hook = None
        return hook

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock, hook, tracer = self.spans, self.stack, time.perf_counter, self._hook(name), self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.job)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the public functions and rebind them throughout ``ncgames``."""
        originals = {}  # name -> function
        for layer in LAYERS:
            module = importlib.import_module(f"ncgames.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj):
                    originals[f"{layer}.{attr}"] = obj
        cli = sys.modules["ncgames.cli"]
        for attr, obj in vars(cli).items():
            if attr.startswith("_cmd_") and inspect.isfunction(obj):
                originals[f"cli.{attr[len('_cmd_'):]}"] = obj
        game_cls = sys.modules["ncgames.game"].Game

        wrappers = {}  # id(original) -> wrapper
        for name, fn in originals.items():
            wrap = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
            wrappers[id(fn)] = (fn, wrap(name, fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "ncgames" and not module_name.startswith("ncgames."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
        game_cls.play_with_members = self._span_wrapper(
            "game.Game.play_with_members", game_cls.play_with_members
        )

    def write(self, path) -> None:
        """Write the spans, one JSON array per line, then counters and extras."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def totals(self) -> dict:
        return {
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "extras": dict(self.extras),
        }


def read_spans(path) -> List[tuple]:
    with open(path) as lines:
        return [tuple(json.loads(line)) for line in lines]


def summarize(spans: List[tuple]) -> dict:
    """Per-function call counts and self times, and the search's validations.

    A span's self time is its duration minus the time its child spans
    cover; one thread records them, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: Dict[str, list] = {}
    in_search = [False] * len(spans)
    validations_in_search = 0
    for index, (name, start, end, parent, _job) in enumerate(spans):
        row = table.setdefault(name, [0, 0.0])
        row[0] += 1
        row[1] += (end - start) - covered[index]
        inside = parent >= 0 and in_search[parent]
        in_search[index] = inside or name == "game.find_isomorphism"
        if inside and name == "game.validate_game_morphism":
            validations_in_search += 1
    return {
        "functions": {name: {"calls": calls, "self_s": self_s} for name, (calls, self_s) in table.items()},
        "validations_in_search": validations_in_search,
    }
