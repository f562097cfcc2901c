"""Shared-state race detection across concurrency domain boundaries.

The repo has three concurrency domains where the byte-identity
invariant is exposed: ProcessPool workers (engine executor, fault and
scenario campaigns), the ``ServiceBroker`` dispatcher thread, and
campaign collation.  This engine models each dispatch site
(``pool.submit``/``pool.map``/``threading.Thread(target=...)``) as a
domain entry point, computes call-graph reachability from the entries,
and flags state that worker-side code mutates without going through a
sanctioned seam:

* writes to module-global mutable containers (append/update/item
  assignment on a top-level ``list``/``dict``/``set``) — in a forked
  worker the write is silently lost, in a thread it races collation;
* ``global`` declarations in worker-reachable functions;
* direct attribute mutation of the process-wide observability
  singletons (``get_metrics().enabled = ...``,
  ``get_tracer().track = ...``) from *anywhere* — the sanctioned seams
  are ``MetricsRegistry.suspended()`` and ``Tracer.on_track()``, which
  restore state exception-safely and keep the serial path byte-identical
  with the pooled one.

A sibling rule, ``pool-pickle-safety``, verifies every process-pool
dispatch ships picklable work: lambdas and nested functions cannot
cross the pickle boundary, whether as the mapped callable or as an
argument.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.lint.callgraph import FunctionTable, ModuleSummary, summarize_module
from repro.lint.rules import (
    DeepRule,
    Finding,
    ImportGraph,
    Module,
    register_rule,
)

#: Modules that *are* the sanctioned shared-state seams: the metrics
#: registry and tracer (process-safe by design, jobs-invariant
#: collation) and the content-addressed trace cache.
SANCTIONED_STATE_MODULES = frozenset({
    "repro/obs/metrics.py",
    "repro/obs/tracer.py",
    "repro/obs/export.py",
    "repro/engine/trace_cache.py",
})


def _entries_by_domain(
    summaries: Dict[str, ModuleSummary],
) -> Dict[str, List[Tuple[str, str]]]:
    """``{domain: [(entry qualname, dispatch site qualname)]}``."""
    entries: Dict[str, List[Tuple[str, str]]] = {}
    for relpath in sorted(summaries):
        for qualname, fn in sorted(summaries[relpath].functions.items()):
            for submit in fn.submits:
                if submit.target is None:
                    continue
                entries.setdefault(submit.domain, []).append(
                    (submit.target, qualname)
                )
    return entries


class WorkerSharedStateRule(DeepRule):
    """Worker-reachable code must not mutate shared module state."""

    id = "worker-shared-state"
    summary = "no shared mutable state written from worker-side code paths"
    rationale = (
        "module globals mutated inside a pool worker are lost at the "
        "process boundary (or race the dispatcher thread), so results "
        "silently depend on --jobs; all cross-domain state must flow "
        "through the sanctioned seams (metrics registry, trace cache, "
        "SeedSequence spawning)"
    )
    facts_key = "callgraph"

    def extract(self, module: Module) -> ModuleSummary:
        """Summarize the module's functions for the shared fact pool."""
        return summarize_module(module)

    def solve(
        self,
        facts: Dict[str, ModuleSummary],
        modules: Sequence[Module],
        graph: ImportGraph,
    ) -> Iterable[Finding]:
        """Reachability from every dispatch entry; flag unsafe writes."""
        table = FunctionTable(facts)
        findings: List[Finding] = []
        seen: set = set()

        for domain, entries in sorted(
            _entries_by_domain(facts).items()
        ):
            reachable = table.reachable_from([e for e, _ in entries])
            for qualname in sorted(reachable):
                fn = table.functions.get(qualname)
                if fn is None:
                    continue
                relpath = table.module_of[qualname]
                if relpath in SANCTIONED_STATE_MODULES:
                    continue
                chain = " -> ".join(reachable[qualname])
                for name, line, how in fn.global_writes:
                    key = (relpath, line, name, domain)
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(Finding(
                        rule=self.id, path=relpath, line=line,
                        message=(
                            f"module-global {name!r} mutated via {how} in "
                            f"{domain}-reachable code ({chain}); route "
                            f"through a sanctioned seam or return the "
                            f"value instead"
                        ),
                    ))
                for names, line in fn.global_decls:
                    key = (relpath, line, names, domain)
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(Finding(
                        rule=self.id, path=relpath, line=line,
                        message=(
                            f"'global {names}' declared in {domain}-"
                            f"reachable code ({chain}); worker-side "
                            f"rebinding never survives the process "
                            f"boundary"
                        ),
                    ))

        # Obs-singleton attribute mutation is unsafe from *any* path:
        # the serial campaign branch and a pooled worker must share one
        # discipline or --jobs 1 and --jobs N diverge on restore bugs.
        for relpath in sorted(facts):
            if relpath in SANCTIONED_STATE_MODULES:
                continue
            for qualname, fn in sorted(facts[relpath].functions.items()):
                for line, attr, what in fn.obs_mutations:
                    findings.append(Finding(
                        rule=self.id, path=relpath, line=line,
                        message=(
                            f"direct attribute mutation of the process-wide "
                            f"{what} (.{attr} = ...); use the sanctioned "
                            f"seam (MetricsRegistry.suspended() / "
                            f"Tracer.on_track()) so state restores are "
                            f"exception-safe and jobs-invariant"
                        ),
                    ))
        return findings


class PoolPickleSafetyRule(DeepRule):
    """Process-pool dispatches must ship picklable callables and args."""

    id = "pool-pickle-safety"
    summary = "pool submit/map must ship pickle-safe callables and arguments"
    rationale = (
        "lambdas and nested functions fail to pickle at dispatch time "
        "(or, worse, only under the spawn start method on another "
        "platform), so every process-pool entry point must ship "
        "module-level callables and plain-data arguments"
    )
    facts_key = "callgraph"

    def extract(self, module: Module) -> ModuleSummary:
        """Summarize the module's functions for the shared fact pool."""
        return summarize_module(module)

    def solve(
        self,
        facts: Dict[str, ModuleSummary],
        modules: Sequence[Module],
        graph: ImportGraph,
    ) -> Iterable[Finding]:
        """Flag pickle hazards recorded at process-pool dispatch sites."""
        findings: List[Finding] = []
        for relpath in sorted(facts):
            for qualname, fn in sorted(facts[relpath].functions.items()):
                for submit in fn.submits:
                    if submit.domain != "process-pool":
                        continue
                    for position, what in submit.hazards:
                        role = ("mapped callable" if position == "callable"
                                else "dispatch argument")
                        findings.append(Finding(
                            rule=self.id, path=relpath, line=submit.line,
                            message=(
                                f"{what} shipped as {role} to a process "
                                f"pool from {qualname}; it cannot be "
                                f"pickled — hoist it to module level and "
                                f"pass plain data"
                            ),
                        ))
        return findings


register_rule(WorkerSharedStateRule())
register_rule(PoolPickleSafetyRule())
