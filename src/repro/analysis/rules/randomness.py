"""seeded-randomness-only: all randomness flows through RandomStream.

The module-level ``random.*`` functions share one ambient, unseeded
generator: a single call anywhere perturbs every other draw in the process
and destroys same-seed reproducibility.  Components must pull a named stream
from the kernel (``kernel.random.stream("component")``); only
``simulation/randomness.py`` — the wrapper itself — may touch the stdlib
``random`` module.  An unseeded ``random.Random()`` is banned everywhere,
including the wrapper.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Sequence, Tuple

from ..findings import Finding
from .base import Rule, dotted_name, import_aliases

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ModuleSource

DEFAULT_ALLOWED_MODULES: Tuple[str, ...] = ("simulation/randomness.py",)

_HINT = (
    'pull a named stream from the kernel: kernel.random.stream("component") '
    "(repro.simulation.randomness.RandomStream)"
)


class SeededRandomnessRule(Rule):
    name = "seeded-randomness-only"

    def __init__(self, allowed_modules: Sequence[str] = DEFAULT_ALLOWED_MODULES) -> None:
        self.allowed_modules = tuple(allowed_modules)

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        aliases = import_aliases(module.tree, "random")
        if not aliases:
            return
        allowed = module.in_scope(self.allowed_modules)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            head, _, rest = name.partition(".")
            origin = aliases.get(head)
            if origin is None:
                continue
            full = origin if not rest else f"random.{rest}"
            if full == "random.Random":
                if not node.args and not node.keywords:
                    yield module.finding(
                        node,
                        self.name,
                        "unseeded random.Random() — draws depend on OS entropy",
                        hint="seed it explicitly, or better: " + _HINT,
                    )
                elif not allowed:
                    yield module.finding(
                        node,
                        self.name,
                        "direct random.Random construction outside the "
                        "RandomStream wrapper",
                        hint=_HINT,
                    )
            elif full.startswith("random.") and not allowed:
                yield module.finding(
                    node,
                    self.name,
                    f"ambient stdlib randomness `{name}(...)` "
                    "(shared unseeded generator)",
                    hint=_HINT,
                )
