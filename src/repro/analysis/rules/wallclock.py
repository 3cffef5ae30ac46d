"""no-wallclock: simulation logic must never read the machine's clock.

Every timestamp inside the simulation must come from ``kernel.now()`` (the
virtual clock) or an injected clock callable; a single ``time.time()`` in
simulation logic silently breaks same-seed reproducibility and every
trace-signature comparison.  Wall-clock reads are legal only inside the
declared boundary, ``repro.observability.wallclock``, which defines the
sanctioned monotonic clock for host durations; whatever times the host
reads it through there.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Sequence, Tuple

from ..findings import Finding
from .base import Rule, dotted_name, import_aliases

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ModuleSource

#: Attributes of the ``time`` module that read the machine's clock.
_TIME_CALLS = (
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
)

#: Constructors on ``datetime.datetime`` / ``datetime.date`` that do the same.
_DATETIME_CALLS = ("now", "utcnow", "today")

#: The module where wall-clock reads are the declared, documented boundary.
DEFAULT_ALLOWED_MODULES: Tuple[str, ...] = ("observability/wallclock.py",)


class NoWallclockRule(Rule):
    name = "no-wallclock"

    def __init__(self, allowed_modules: Sequence[str] = DEFAULT_ALLOWED_MODULES) -> None:
        self.allowed_modules = tuple(allowed_modules)

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        if module.in_scope(self.allowed_modules):
            return
        time_aliases = import_aliases(module.tree, "time")
        datetime_aliases = import_aliases(module.tree, "datetime")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            head, _, rest = name.partition(".")
            origin = time_aliases.get(head)
            if origin is not None:
                # `import time` -> origin "time", rest is the attribute;
                # `from time import monotonic` -> origin "time.monotonic".
                full = origin if not rest else f"time.{rest}"
                attribute = full.split(".", 1)[1] if "." in full else ""
                if attribute in _TIME_CALLS:
                    yield module.finding(
                        node,
                        self.name,
                        f"wall-clock read `{name}(...)` in simulation code",
                        hint="use kernel.now() for virtual time, or inject a clock "
                        "callable whose default lives in repro.observability.wallclock",
                    )
                continue
            origin = datetime_aliases.get(head)
            if origin is not None:
                tail = name.rsplit(".", 1)[-1] if "." in name else ""
                if tail in _DATETIME_CALLS or (
                    not tail and origin.rsplit(".", 1)[-1] in _DATETIME_CALLS
                ):
                    yield module.finding(
                        node,
                        self.name,
                        f"wall-clock read `{name}(...)` in simulation code",
                        hint="use kernel.now() for virtual time, or inject a clock "
                        "callable whose default lives in repro.observability.wallclock",
                    )
