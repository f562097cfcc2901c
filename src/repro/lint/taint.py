"""Determinism taint propagation across the intra-project call graph.

The basic ``no-wall-clock`` / ``no-unseeded-rng`` rules catch the
*literal* call site.  This engine catches the laundered version: a
helper three frames above ``price_batch`` that returns ``time.time()``
through two intermediaries taints every value derived from it, and the
byte-identity invariant breaks only where the tainted value finally
reaches a priced, serialized, or cache-keyed output.

The solve phase runs a summary-based interprocedural fixpoint over the
per-function dataflow summaries produced by
:mod:`repro.lint.callgraph`:

* ``RET[f]`` — the nondeterminism sources ``f``'s return value may
  carry, each with the call chain that delivered it;
* ``PARAM[f][i]`` — sources the ``i``-th parameter may receive from
  any call site in the project.

Atoms bind the two: a ``("call", g)`` atom pulls in ``RET[g]``, a
``("param", i)`` atom pulls in ``PARAM[f][i]``, and a ``("src", label)``
atom seeds taint.  The analysis is context-insensitive (one PARAM/RET
summary per function) which keeps the fixpoint linear and the findings
deterministic; chains are capped and sorted so repeated runs emit
byte-identical messages.

The sanctioned clock seams (:data:`repro.lint.callgraph.CLOCK_SEAMS`:
the tracer, the executor's host-side timing, the service broker) do not
*seed* taint: their wall-clock and environment reads are measurement,
documented as never reaching priced values.  ``no-wall-clock`` skips
the same modules.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.lint.callgraph import (
    CLOCK_SEAMS,
    FunctionTable,
    ModuleSummary,
    summarize_module,
)
from repro.lint.rules import (
    DeepRule,
    Finding,
    ImportGraph,
    Module,
    register_rule,
)

#: Longest call chain rendered in a finding message.
MAX_CHAIN = 6

Chain = Tuple[str, ...]


def _merge(
    into: Dict[str, Chain], sources: Dict[str, Chain]
) -> bool:
    """Union ``sources`` into ``into``; True when anything was added."""
    changed = False
    for label in sorted(sources):
        if label not in into:
            into[label] = sources[label]
            changed = True
    return changed


class TaintSolver:
    """The interprocedural fixpoint over one program's summaries."""

    def __init__(self, summaries: Dict[str, ModuleSummary]):
        self.table = FunctionTable(summaries)
        self.ret: Dict[str, Dict[str, Chain]] = {}
        self.param: Dict[str, Dict[str, Dict[str, Chain]]] = {}
        for qualname in self.table.functions:
            self.ret[qualname] = {}
            self.param[qualname] = {}

    def _seeds_allowed(self, qualname: str) -> bool:
        relpath = self.table.module_of.get(qualname, "")
        return relpath not in CLOCK_SEAMS

    def eval_atoms(
        self, qualname: str, atoms: Iterable[Sequence[str]]
    ) -> Dict[str, Chain]:
        """Resolve an atom set to ``{source label: call chain}``."""
        out: Dict[str, Chain] = {}
        for atom in atoms:
            tag = atom[0]
            if tag == "src":
                if self._seeds_allowed(qualname):
                    _merge(out, {atom[1]: (qualname,)})
            elif tag == "call":
                callee = self.table.resolve(atom[1])
                if callee is not None:
                    for label, chain in sorted(self.ret[callee].items()):
                        extended = ((qualname,) + chain)[:MAX_CHAIN]
                        _merge(out, {label: extended})
            elif tag == "param":
                index = atom[1]
                _merge(out, self.param[qualname].get(index, {}))
        return out

    def run(self) -> None:
        """Iterate RET/PARAM to a fixpoint (bounded by program depth)."""
        for _ in range(len(self.table.functions) + 2):
            changed = False
            for qualname in sorted(self.table.functions):
                fn = self.table.functions[qualname]
                # Propagate argument taint into callee parameter slots.
                for call in fn.calls:
                    callee = self.table.resolve(call.callee)
                    if callee is None:
                        continue
                    callee_fn = self.table.functions[callee]
                    offset = 0
                    if callee_fn.params[:1] in (["self"], ["cls"]):
                        offset = 1
                    for pos, atoms in enumerate(call.args):
                        index = str(pos + offset)
                        sources = self.eval_atoms(qualname, atoms)
                        if sources:
                            slot = self.param[callee].setdefault(index, {})
                            changed |= _merge(slot, sources)
                    for kw_name, atoms in sorted(call.kwargs.items()):
                        if kw_name in callee_fn.params:
                            index = str(callee_fn.params.index(kw_name))
                            sources = self.eval_atoms(qualname, atoms)
                            if sources:
                                slot = self.param[callee].setdefault(
                                    index, {})
                                changed |= _merge(slot, sources)
                # Recompute the return summary.
                sources = self.eval_atoms(qualname, fn.returns)
                changed |= _merge(self.ret[qualname], sources)
            if not changed:
                return

    def findings(self) -> List[Finding]:
        """One finding per sink call receiving at least one source."""
        out: List[Finding] = []
        for qualname in sorted(self.table.functions):
            fn = self.table.functions[qualname]
            relpath = self.table.module_of[qualname]
            if relpath in CLOCK_SEAMS:
                continue
            for sink in fn.sinks:
                sources = self.eval_atoms(qualname, sink.atoms)
                if not sources:
                    continue
                label = sorted(sources)[0]
                chain = sources[label]
                via = " -> ".join(chain)
                extra = ""
                if len(sources) > 1:
                    extra = f" (+{len(sources) - 1} more source(s))"
                out.append(Finding(
                    rule="taint-determinism",
                    path=relpath,
                    line=sink.line,
                    message=(
                        f"{sink.kind} sink {sink.sink}() receives a value "
                        f"tainted by {label}{extra}; flow: {via}"
                    ),
                ))
        return out


class TaintDeterminismRule(DeepRule):
    """Nondeterminism sources must not reach priced/serialized values.

    Seeds taint at wall-clock reads, unseeded RNG constructors, and
    environment/host-identity lookups; propagates it through the
    project call graph (calls, returns, assignments); and flags any
    tainted value reaching a pricing, cache-key, or serialized-output
    sink.  The finding lands on the sink call and names the full flow
    chain, so the fix site and the root cause are both visible.
    """

    id = "taint-determinism"
    summary = "no nondeterministic value may flow into priced/reported output"
    rationale = (
        "the byte-identity invariant fails exactly when wall-clock, "
        "unseeded-RNG, or environment values reach a priced, cache-keyed, "
        "or serialized result — even through helper functions the "
        "per-file rules cannot see across"
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
        """Run the fixpoint over every module's summaries."""
        solver = TaintSolver(facts)
        solver.run()
        return solver.findings()


register_rule(TaintDeterminismRule())
