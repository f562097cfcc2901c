"""Declarative API-contract checking.

The repo's public-surface guarantees were previously enforced by
scattered import-time asserts and test snippets: ``repro.api`` pins its
``__all__``, ``repro.vecprice.lowering`` refuses to import if its column
order drifts from ``ALL_KINDS``, and every ``ArchBackend`` must
implement the columnar ``tables_as_arrays`` lowering.  This engine turns
those into *declared contracts the analyzer verifies*:

* every module with a literal ``__all__`` must bind each listed name
  (no drift, no duplicates);
* pinned facades (``repro/api.py``) must carry a literal ``__all__``;
* field-order-guarded modules must keep their import-time guard
  comparing against the declared order constant;
* classes subclassing ``ArchBackend`` must define ``tables_as_arrays``.

Extraction is per-module like the other deep engines; the solver checks
the declarations program-wide.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence

from repro.lint.rules import (
    DeepRule,
    Finding,
    ImportGraph,
    Module,
    register_rule,
)

#: Facade modules that must pin a literal ``__all__``.
PINNED_ALL = ("repro/api.py",)

#: ``relpath -> order constant``: the module must keep a top-level
#: ``if`` guard referencing the constant with a ``raise`` in its body.
GUARDED_FIELD_ORDER = {
    "repro/vecprice/lowering.py": "ALL_KINDS",
}

#: Backend base class whose subclasses owe the columnar lowering hook.
BACKEND_BASE = "ArchBackend"
BACKEND_REQUIRED_METHOD = "tables_as_arrays"


def _literal_strings(node: ast.AST) -> Optional[List[str]]:
    """The string elements of a literal list/tuple, else None."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    out: List[str] = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            out.append(elt.value)
        else:
            return None
    return out


def extract_contract_facts(module: Module) -> dict:
    """Per-module declarations the contract solver checks."""
    facts: dict = {
        "all": None, "all_line": 0,
        "bound": [],
        "has_getattr": False,
        "has_star": False,
        "guards": [],
        "classes": {},
    }
    bound: set = set()
    for node in ast.iter_child_nodes(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
            if node.name == "__getattr__":
                facts["has_getattr"] = True
        elif isinstance(node, ast.ClassDef):
            bound.add(node.name)
            bases = [
                base.attr if isinstance(base, ast.Attribute)
                else base.id if isinstance(base, ast.Name) else ""
                for base in node.bases
            ]
            methods = sorted({
                child.name for child in ast.iter_child_nodes(node)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            })
            facts["classes"][node.name] = {
                "bases": bases, "methods": methods, "line": node.lineno,
            }
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    facts["has_star"] = True
                else:
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                bound.add(target.id)
                if target.id == "__all__" and node.value is not None:
                    facts["all"] = _literal_strings(node.value)
                    facts["all_line"] = node.lineno
        elif isinstance(node, ast.If):
            has_raise = any(
                isinstance(child, ast.Raise) for child in node.body
            )
            if has_raise:
                names = sorted({
                    child.id for child in ast.walk(node.test)
                    if isinstance(child, ast.Name)
                })
                facts["guards"].extend(names)
    facts["bound"] = sorted(bound)
    return facts


class ApiContractRule(DeepRule):
    """Declared public-surface contracts must hold program-wide."""

    id = "api-contract"
    summary = "__all__ pins, field-order guards, and lowering hooks must hold"
    rationale = (
        "the facade's pinned __all__ and the tables_as_arrays/ALL_KINDS "
        "field-order guards are load-bearing compatibility contracts; "
        "verifying them statically catches drift before an import-time "
        "assert or a user does"
    )
    facts_key = "contracts"

    def extract(self, module: Module) -> dict:
        """Collect the module's contract declarations."""
        return extract_contract_facts(module)

    def solve(
        self,
        facts: Dict[str, dict],
        modules: Sequence[Module],
        graph: ImportGraph,
    ) -> Iterable[Finding]:
        """Check every declared contract against the extracted facts."""
        findings: List[Finding] = []
        # A program-wide base class may satisfy the lowering contract for
        # every subclass (ArchBackend ships a generic tables_as_arrays).
        base_provides_method = any(
            BACKEND_REQUIRED_METHOD
            in data["classes"].get(BACKEND_BASE, {}).get("methods", ())
            for data in facts.values()
        )
        for relpath in sorted(facts):
            data = facts[relpath]
            exported = data["all"]
            bound = set(data["bound"])
            # ``from x import *`` and module __getattr__ both bind names
            # invisibly to static analysis; skip drift checking there.
            drift_checkable = not (data["has_star"] or data["has_getattr"])

            if exported is not None:
                seen: set = set()
                for name in exported:
                    if name in seen:
                        findings.append(Finding(
                            rule=self.id, path=relpath,
                            line=data["all_line"],
                            message=f"__all__ lists {name!r} twice",
                        ))
                    seen.add(name)
                    if name not in bound and drift_checkable:
                        findings.append(Finding(
                            rule=self.id, path=relpath,
                            line=data["all_line"],
                            message=(
                                f"__all__ exports {name!r} but the module "
                                f"never binds it (export drift)"
                            ),
                        ))
            elif relpath in PINNED_ALL:
                findings.append(Finding(
                    rule=self.id, path=relpath, line=1,
                    message=(
                        "facade module must pin a literal __all__ "
                        "(the compatibility surface is the contract)"
                    ),
                ))

            guard_const = GUARDED_FIELD_ORDER.get(relpath)
            if guard_const is not None and guard_const not in data["guards"]:
                findings.append(Finding(
                    rule=self.id, path=relpath, line=1,
                    message=(
                        f"missing import-time field-order guard against "
                        f"{guard_const} (a silent column reorder would "
                        f"misprice every trace)"
                    ),
                ))

            for cls_name, cls in sorted(data["classes"].items()):
                if BACKEND_BASE in cls["bases"]:
                    provided = (
                        BACKEND_REQUIRED_METHOD in cls["methods"]
                        or base_provides_method
                    )
                    if not provided:
                        findings.append(Finding(
                            rule=self.id, path=relpath, line=cls["line"],
                            message=(
                                f"{cls_name} subclasses {BACKEND_BASE} "
                                f"but does not implement "
                                f"{BACKEND_REQUIRED_METHOD}() — the "
                                f"columnar pricer cannot lower its tables"
                            ),
                        ))
        return findings


register_rule(ApiContractRule())
