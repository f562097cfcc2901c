"""The layer map as data, and the import-graph rule that enforces it.

This module is the single source of truth for the repo's dependency
arrows.  ``docs/architecture.md`` embeds :func:`render_rule_table`
verbatim and its mermaid diagram's arrows are asserted against
:data:`ALLOWED` in ``tests/test_lint.py`` — so the prose map, the
diagram, and the machine check can never drift apart.

The model is group-level: every ``repro.*`` module belongs to exactly
one *group* (``engine``, ``kernels``, ``data``, ...), and a group may
only import from itself plus its :data:`ALLOWED` set.  Two refinements
keep the model honest about the real code:

* **Deferred seams** (:data:`DEFERRED_ALLOWED`): ``repro.core.registry``
  populates itself from the kernel packages through a function-scope
  import.  That upward edge is deliberate and cycle-free at import time,
  so it is legal *only* as a deferred import — hoisting it to module
  level is a finding.
* **Unmapped modules are findings**: a new top-level package that is not
  in :data:`GROUPS` fails the lint until it is added here *and* to the
  architecture doc, which is exactly the forcing function we want.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.lint.rules import (
    Finding,
    ImportGraph,
    Module,
    Rule,
    register_rule,
)

#: Kernel packages: the 31 benchmark algorithms, one package per family.
KERNEL_PACKAGES: Tuple[str, ...] = (
    "attitude", "control", "ekf", "factorgraph", "nn", "perception", "pose",
)

#: Shared data/number substrate: importable from anywhere, imports nothing
#: above numpy.
DATA_MODULES: Tuple[str, ...] = ("datasets", "fixedpoint", "scalar")

#: group name -> the top-level ``repro.*`` components it contains.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "cli": ("cli", "__main__", ""),  # "" is the root repro/__init__.py
    "api": ("api",),
    "service": ("service",),
    "analysis": ("analysis",),
    "lint": ("lint",),
    "engine": ("engine",),
    "vecprice": ("vecprice",),
    "scenarios": ("scenarios",),
    "closedloop": ("closedloop",),
    "faults": ("faults",),
    "obs": ("obs",),
    "core": ("core",),
    "instrumentation": ("instrumentation",),
    "kernels": KERNEL_PACKAGES,
    "backends": ("backends",),
    "mcu": ("mcu",),
    "data": DATA_MODULES,
}

#: group -> groups it may import from (itself is always allowed).
#: This is the checked rule table; architecture.md renders it.
ALLOWED: Dict[str, FrozenSet[str]] = {
    "cli": frozenset({
        "analysis", "api", "backends", "closedloop", "core", "data",
        "engine", "faults", "lint", "mcu", "obs", "scenarios", "service",
    }),
    "api": frozenset({
        "backends", "closedloop", "core", "engine", "faults", "mcu",
        "scenarios", "service", "vecprice",
    }),
    "service": frozenset({
        "backends", "closedloop", "core", "engine", "faults", "mcu", "obs",
    }),
    "analysis": frozenset({
        "api", "core", "data", "kernels", "mcu",
    }),
    "lint": frozenset(),
    "scenarios": frozenset({
        "backends", "closedloop", "core", "data", "engine", "faults",
        "mcu", "obs",
    }),
    "faults": frozenset({
        "closedloop", "core", "data", "engine", "instrumentation",
        "mcu", "obs",
    }),
    "closedloop": frozenset({"core", "data", "kernels", "mcu", "obs"}),
    "engine": frozenset({"core", "data", "mcu", "obs", "vecprice"}),
    "vecprice": frozenset({"backends", "core", "data", "mcu"}),
    "core": frozenset({"data", "instrumentation", "mcu"}),
    "instrumentation": frozenset({"data", "mcu"}),
    "kernels": frozenset({"core", "data", "mcu"}),
    "backends": frozenset({"data", "mcu"}),
    "mcu": frozenset({"data"}),
    "obs": frozenset(),
    "data": frozenset(),
}

#: (src group, dst group) edges that are legal ONLY as deferred
#: (function-scope) imports, with the reason documented.
DEFERRED_ALLOWED: Dict[Tuple[str, str], str] = {
    ("core", "kernels"): (
        "registry population seam: kernel suites self-register on first "
        "registry use"
    ),
    ("core", "backends"): (
        "default-arch seam: sweep specs resolve the registry's "
        "characterization set at construction time"
    ),
    ("mcu", "backends"): (
        "pricing seam: backends defines cores in terms of repro.mcu spec "
        "types, so the pricing models reach the registry at call time only"
    ),
}

#: Groups that may import nothing from repro at all (stdlib-only leaves).
LEAF_GROUPS: Tuple[str, ...] = ("obs", "lint", "data")

_COMPONENT_TO_GROUP: Dict[str, str] = {
    component: group
    for group, components in GROUPS.items()
    for component in components
}


def group_of(module_name: str) -> Optional[str]:
    """The layer group of a dotted ``repro.*`` module name.

    Returns ``None`` for modules outside the repro namespace (stdlib,
    numpy, ...) — the layering rule ignores those — and for unmapped
    ``repro.*`` components, which the rule reports.
    """
    parts = module_name.split(".")
    if parts[0] != "repro":
        return None
    component = parts[1] if len(parts) > 1 else ""
    return _COMPONENT_TO_GROUP.get(component)


def allowed_edges() -> List[Tuple[str, str]]:
    """Every (src, dst) group edge the table permits, sorted."""
    return sorted(
        (src, dst) for src, dsts in ALLOWED.items() for dst in dsts
    )


def render_rule_table() -> str:
    """The markdown dependency-rule table embedded in architecture.md.

    ``tests/test_lint.py`` asserts the doc contains this text verbatim,
    which is what makes this module the doc's source of truth.
    """
    lines = [
        "| group | modules | may import |",
        "|---|---|---|",
    ]
    for group in sorted(GROUPS):
        members = ", ".join(
            f"`repro.{c}`" if c else "`repro`" for c in GROUPS[group]
        )
        targets = ", ".join(f"`{t}`" for t in sorted(ALLOWED[group]))
        if not targets:
            targets = "*(imports nothing from repro)*"
        lines.append(f"| `{group}` | {members} | {targets} |")
    for (src, dst), reason in sorted(DEFERRED_ALLOWED.items()):
        lines.append(
            f"| `{src}` → `{dst}` | *deferred-only seam* | "
            f"function-scope import only: {reason} |"
        )
    return "\n".join(lines)


class LayeringRule(Rule):
    """Enforce the dependency arrows of ``docs/architecture.md``.

    Whole-program: builds on the import graph the engine collected and
    checks every intra-repo edge against :data:`ALLOWED`, including the
    deferred-only seams and unmapped-module detection.
    """

    id = "layering"
    summary = "imports must follow the architecture layer map"
    rationale = (
        "lower layers must never depend on orchestration or surface "
        "code; observing never changes what is observed"
    )

    def check_program(
        self, modules: Sequence[Module], graph: ImportGraph
    ) -> Iterable[Finding]:
        """Yield one finding per illegal edge or unmapped module."""
        for module in modules:
            if group_of(module.name) is None:
                yield Finding(
                    rule=self.id, path=module.relpath, line=1,
                    message=(
                        f"module {module.name} is not in the layer map; "
                        "add its package to repro.lint.layering.GROUPS "
                        "and docs/architecture.md"
                    ),
                )
        for edge in graph.edges:
            dst_group = group_of(edge.target)
            if dst_group is None:
                if edge.target.split(".")[0] == "repro":
                    yield Finding(
                        rule=self.id, path=edge.path, line=edge.line,
                        message=(
                            f"{edge.src_module} imports unmapped repro "
                            f"module {edge.target}"
                        ),
                    )
                continue
            src_group = group_of(edge.src_module)
            if src_group is None or src_group == dst_group:
                continue
            if dst_group in ALLOWED.get(src_group, frozenset()):
                continue
            if (src_group, dst_group) in DEFERRED_ALLOWED:
                if edge.deferred:
                    continue
                yield Finding(
                    rule=self.id, path=edge.path, line=edge.line,
                    message=(
                        f"{edge.src_module} imports {edge.target} at module "
                        f"level; the {src_group} -> {dst_group} seam is "
                        "deferred-only (import inside the function that "
                        "needs it)"
                    ),
                )
                continue
            yield Finding(
                rule=self.id, path=edge.path, line=edge.line,
                message=(
                    f"{edge.src_module} imports {edge.target}: layer "
                    f"'{src_group}' may not depend on '{dst_group}'"
                ),
            )


register_rule(LayeringRule())
