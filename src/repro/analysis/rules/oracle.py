"""no-cross-site-oracle: sites learn about each other only through messages.

Kemme et al.'s optimistic protocol is correct because delivery order is the
*only* channel between sites.  PR 7 fixed a failover path that consulted the
crash manager's ground truth (an omniscient oracle no real deployment has);
this rule checks that bug class.  Outside the declared boundary — the
network/chaos/verification layers, the cluster facades that *own* their
replicas, and the explicit recovery donor path — code may not:

* dereference a peer handed in as ``donor``/``peer`` (or iterate ``peers``),
* reach through a site registry into a peer's private state
  (``cluster.replicas[x]._anything``),
* consult the crash manager's ground truth (``is_up``/``up_sites``), or
  the transport's (``is_site_up``, on any receiver).

The donor path is a *declared* allowlist of function names
(:data:`DEFAULT_DONOR_FUNCTIONS`): recovery is the one sanctioned moment a
site may read a peer's volatile state, and naming the functions keeps that
surface enumerable and reviewable.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, List, Sequence, Set, Tuple

from ..findings import Finding
from .base import Rule, dotted_name

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ModuleSource

#: Layers allowed to see cluster-wide state by design: the transport and
#: fault injectors *are* the environment, verification/harness code runs
#: outside the system under test, and the cluster facades compose the sites.
DEFAULT_ALLOWED_MODULES: Tuple[str, ...] = (
    "network/",
    "chaos/",
    "verification/",
    "harness/",
    "observability/",
    "analysis/",
    "sharding/",
    "core/cluster.py",
)

#: The declared recovery donor path: the only functions that may read a
#: peer's volatile state directly (PR 3's catch-up protocol).
DEFAULT_DONOR_FUNCTIONS: Tuple[str, ...] = (
    "catch_up_from",
    "rejoin",
    "on_recover",
    "_copy_donor_order",
)

#: Parameter/variable names that denote a peer site's object.
_PEER_NAMES = ("donor", "peer")

#: Attributes that map site ids to live site objects.
_SITE_COLLECTIONS = ("replicas", "sites", "endpoints", "schedulers", "_sites")

#: Crash-manager methods that reveal ground-truth liveness.
_ORACLE_METHODS = ("is_up", "up_sites", "down_sites")

#: The transport's liveness flag: the same ground truth, whatever holds it.
_TRANSPORT_ORACLE = "is_site_up"

_HINT = (
    "sites may only learn about each other through delivered messages; use "
    "the transport, a failure detector, or the declared recovery donor path "
    "(see docs/analysis.md)"
)


class NoCrossSiteOracleRule(Rule):
    name = "no-cross-site-oracle"

    def __init__(
        self,
        allowed_modules: Sequence[str] = DEFAULT_ALLOWED_MODULES,
        donor_functions: Sequence[str] = DEFAULT_DONOR_FUNCTIONS,
    ) -> None:
        self.allowed_modules = tuple(allowed_modules)
        self.donor_functions = tuple(donor_functions)

    # -------------------------------------------------------------- patterns
    def _peer_dereferences(
        self, module: "ModuleSource", function: ast.AST, peer_names: Set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in peer_names:
                    yield module.finding(
                        node,
                        self.name,
                        f"dereference of peer-site object `{node.value.id}."
                        f"{node.attr}` outside the declared recovery donor path",
                        hint=_HINT,
                    )

    def _registry_dereferences(self, module: "ModuleSource") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if not isinstance(value, ast.Subscript):
                continue
            container = value.value
            if (
                isinstance(container, ast.Attribute)
                and container.attr in _SITE_COLLECTIONS
                and node.attr.startswith("_")
            ):
                chain = dotted_name(container) or container.attr
                yield module.finding(
                    node,
                    self.name,
                    f"reach into a peer's private state `{chain}[...]"
                    f".{node.attr}` through a site registry",
                    hint=_HINT,
                )

    def _oracle_calls(self, module: "ModuleSource") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver_name = dotted_name(func.value) or ""
            if func.attr == _TRANSPORT_ORACLE:
                reads = "reads the transport's ground-truth liveness"
            elif func.attr in _ORACLE_METHODS and (
                "crash_manager" in receiver_name or receiver_name.endswith("crash")
            ):
                reads = "consults the crash manager's ground truth (the PR 7 oracle bug class)"
            else:
                continue
            yield module.finding(
                node,
                self.name,
                f"`{receiver_name}.{func.attr}(...)` {reads}",
                hint="use a failure detector (repro.failure.detector) or "
                "quorum suspicion (repro.failure.suspicion) instead",
            )

    # --------------------------------------------------------------- driving
    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        if module.in_scope(self.allowed_modules):
            return
        yield from self._registry_dereferences(module)
        yield from self._oracle_calls(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name in self.donor_functions:
                continue
            peer_names: Set[str] = set()
            args = node.args
            all_args: List[ast.arg] = (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
            for arg in all_args:
                if arg.arg in _PEER_NAMES:
                    peer_names.add(arg.arg)
            for child in ast.walk(node):
                if isinstance(child, (ast.For, ast.AsyncFor)):
                    iter_name = dotted_name(child.iter) or ""
                    if (
                        isinstance(child.target, ast.Name)
                        and child.target.id in _PEER_NAMES
                        and (iter_name.endswith("peers") or iter_name.endswith("replicas"))
                    ):
                        peer_names.add(child.target.id)
            if peer_names:
                yield from self._peer_dereferences(module, node, peer_names)
