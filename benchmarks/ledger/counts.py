"""Exact work numbers: primitive call counts of one run, by layer.

A run under ``cProfile`` is slower but its *call counts* do not depend on
the clock: they repeat exactly across processes and hash seeds, so they
compare two versions of the program without noise.  Python functions are
attributed to a layer by the module they live in; builtins, numpy, stdlib
helpers, generated code (dataclass ``__init__``) and ``repro._util`` are
attributed to whoever called them, following the caller chain until it
reaches a layer.

The profiler's raw entries are read directly: ``pstats`` merges entries
by ``(file, line, name)``, and every dataclass ``__init__`` is
``("<string>", 2, "__init__")`` — all but one would be dropped, a
different one from process to process.
"""

from __future__ import annotations

import cProfile
import math
from collections import defaultdict

from .tracer import layer_of_module


#: Sweeps after which the caller-chain system is taken as solved; a chain
#: of helpers needs one sweep per link, a recursive cycle converges
#: geometrically (the runs here settle in well under a hundred).
MAX_SWEEPS = 200


def _module_of(filename: str) -> str | None:
    """Dotted ``repro.*`` module of a source path, else ``None``."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0 or not filename.endswith(".py"):
        return None
    dotted = filename[at + 1 : -3].replace("/", ".")
    return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted


def layer_calls(profile: cProfile.Profile) -> tuple[int, dict[str, int]]:
    """``(total primitive calls, primitive calls per layer)``.

    Calls that no layer leads to (the harness's own) land in ``"other"``.
    """
    # Keyed by identity: code objects compare equal by value, and two
    # dataclasses with the same fields get equal ``__init__`` code.
    codes: dict[object, object] = {}
    primitive: dict[object, int] = defaultdict(int)
    callers: dict[object, list[tuple[object, int]]] = defaultdict(list)

    def key_of(code) -> object:
        key = code if isinstance(code, str) else id(code)
        codes[key] = code
        return key

    for entry in profile.getstats():
        caller = key_of(entry.code)
        primitive[caller] += entry.callcount - entry.reccallcount
        for callee in entry.calls or ():
            callers[key_of(callee.code)].append(
                (caller, callee.callcount - callee.reccallcount)
            )

    def own_layer(key) -> str | None:
        code = codes[key]
        if isinstance(code, str):
            return None
        layer = layer_of_module(_module_of(code.co_filename))
        return None if layer == "other" else layer

    # Layer distribution of every entry that is in no layer itself: the
    # count-weighted mean of its callers' distributions.  Helpers call
    # helpers, some recursively, so this is a linear system; it is solved
    # by sweeps that read only the previous sweep's values and add with
    # fsum, which makes every number independent of the order of the
    # profiler's address-sorted tables.
    fixed = {key: {own_layer(key): 1.0} for key in primitive if own_layer(key)}
    free = [key for key in primitive if key not in fixed]
    split: dict[object, dict[str, float]] = {key: {} for key in free}
    for _sweep in range(MAX_SWEEPS):
        swept = {}
        for key in free:
            weights: dict[str, list[float]] = defaultdict(list)
            total = 0
            for caller, count in callers[key]:
                total += count
                for layer, share in (fixed.get(caller) or split[caller]).items():
                    weights[layer].append(count * share)
            swept[key] = (
                {layer: math.fsum(terms) / total for layer, terms in weights.items()}
                if total
                else {"other": 1.0}  # active before profiling began: the harness
            )
        if swept == split:
            break
        split = swept

    parts: dict[str, list[float]] = defaultdict(list)
    for key, calls in primitive.items():
        for layer, share in (fixed.get(key) or split[key]).items():
            parts[layer].append(calls * share)
    by_layer = {layer: round(math.fsum(terms)) for layer, terms in parts.items()}
    return sum(primitive.values()), by_layer
