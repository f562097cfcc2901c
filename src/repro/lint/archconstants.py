"""The arch-constants rule: per-ISA cost tables live in ``repro.backends``.

The backend registry (:mod:`repro.backends`) is the single home for
everything that prices an architecture — CPI/cost tables, per-core
static factors, and the ``ArchSpec`` constants themselves.  History
shows these tables metastasize: before the registry existed, float CPI
dictionaries lived in ``repro.mcu.pipeline`` and per-core factors in
``repro.mcu.static``, so adding an ISA meant editing three pricing
modules.  This rule makes the consolidation permanent:

* a module-level (or class-level) call to one of the spec constructors
  (``ArchSpec``, ``FpuSpec``, ``CacheSpec``, ``MemorySpec``,
  ``PowerSpec``) outside ``repro.backends`` is a finding — concrete
  cores belong to a backend module;
* a module-level constant whose name follows the cost-table conventions
  (``_SOFT_F32``, ``_HW_F64``, ``_FIXED_RV``, ``*_CPI*``,
  ``*ARCH_FACTORS*``) is a finding — cost tables belong to a backend.

Function-scope construction stays legal everywhere: fault injectors
derive stressed ``PowerSpec`` variants at run time, which is modeling,
not a new architecture definition.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List

from repro.lint.rules import (
    Finding,
    ImportAliases,
    Module,
    Rule,
    register_rule,
)

#: The one package allowed to define arch constants.
BACKENDS_PACKAGE = "repro.backends"

#: Spec dataclasses whose module-level instantiation defines a core.
SPEC_CLASSES = frozenset({
    "ArchSpec", "FpuSpec", "CacheSpec", "MemorySpec", "PowerSpec",
})

#: Constant-naming conventions used by the per-ISA cost tables.
TABLE_NAME = re.compile(
    r"^_?("
    r"(SOFT|HW|FIXED)_[A-Z0-9_]+"
    r"|[A-Z0-9_]*(CPI|ARCH_FACTORS)[A-Z0-9_]*"
    r")$"
)


def _in_backends(module_name: str) -> bool:
    return (
        module_name == BACKENDS_PACKAGE
        or module_name.startswith(BACKENDS_PACKAGE + ".")
    )


def _target_names(node: ast.AST) -> List[str]:
    """Plain names bound by an Assign/AnnAssign target (tuples unpacked)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Tuple, ast.List)):
        names: List[str] = []
        for elt in node.elts:
            names.extend(_target_names(elt))
        return names
    return []


class ArchConstantsRule(Rule):
    """Arch cost tables and core specs may only live in ``repro.backends``.

    Per-file: reads every assignment from the module's node index,
    skips those inside a ``def`` or ``lambda``, and flags the remaining
    (module- and class-level) spec-constructor calls and
    cost-table-named constants in any module outside the backends
    package.
    """

    id = "arch-constants"
    summary = "CPI/power tables and core specs only in repro.backends"
    rationale = (
        "one registry home for every per-ISA constant means adding an "
        "architecture never touches the pricing modules"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Yield one finding per misplaced spec constant or cost table."""
        if _in_backends(module.name):
            return
        aliases = module.aliases
        enclosed = module.index.enclosed
        for node in module.index.nodes:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            if node in enclosed:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n for t in targets for n in _target_names(t)]
            value = node.value
            spec = self._spec_call(value, aliases)
            if spec is not None:
                yield Finding(
                    rule=self.id, path=module.relpath, line=node.lineno,
                    message=(
                        f"module-level {spec} constant outside "
                        f"{BACKENDS_PACKAGE}; concrete cores belong to an "
                        "ArchBackend module"
                    ),
                )
                continue
            for name in names:
                if TABLE_NAME.match(name):
                    yield Finding(
                        rule=self.id, path=module.relpath, line=node.lineno,
                        message=(
                            f"cost-table constant {name} outside "
                            f"{BACKENDS_PACKAGE}; per-ISA tables belong to "
                            "an ArchBackend"
                        ),
                    )

    @staticmethod
    def _spec_call(value: ast.AST, aliases: ImportAliases) -> str:
        """The spec class a call expression constructs, if any."""
        if value is None or not isinstance(value, ast.Call):
            return None
        resolved = aliases.resolve(value.func)
        if resolved is None:
            return None
        leaf = resolved.split(".")[-1]
        return leaf if leaf in SPEC_CLASSES else None


register_rule(ArchConstantsRule())
