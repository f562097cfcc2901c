"""Per-file AST checkers for the determinism and hygiene rules.

Each rule here protects one of the repo's headline guarantees — sweeps
and campaigns are byte-identical across runs and ``--jobs`` counts — or
a hygiene invariant the suite already enforced piecemeal.  Every rule
iterates the module's shared :class:`~repro.lint.rules.NodeIndex` and
never walks the tree itself; all pattern matching goes through
:class:`repro.lint.rules.ImportAliases`, so ``time.perf_counter`` is
caught however it was imported.  The determinism vocabulary (banned
clocks, the clock seams, seeded RNG constructors, pool imports) is the
deep engine's, from :mod:`repro.lint.callgraph`.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from repro.lint.callgraph import (
    CLOCK_SEAMS,
    POOL_MODULES,
    WALL_CLOCK_SOURCES,
    is_unseeded_rng,
)
from repro.lint.rules import (
    Finding,
    ImportAliases,
    Module,
    Rule,
    register_rule,
)


def _call_name(node: ast.AST, aliases: ImportAliases) -> Optional[str]:
    """Canonical dotted name of a call's callee, when resolvable."""
    if isinstance(node, ast.Call):
        return aliases.resolve(node.func)
    return None


class WallClockRule(Rule):
    """Ban wall-clock reads outside the sanctioned timing seams.

    Sim-time determinism means results never depend on host time; only
    the tracer, the executor's wall-time profiling and the service
    broker's queue timing are allowed to look at a real clock.
    """

    id = "no-wall-clock"
    summary = "wall-clock reads only inside the allowlisted timing seams"
    rationale = (
        "results must be a function of the spec and the seed, never of "
        "host time; timing belongs to repro.obs"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag imports and uses of banned clock functions."""
        if module.relpath in CLOCK_SEAMS:
            return
        aliases = module.aliases
        for node in module.index.nodes:
            if isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    full = f"{node.module}.{alias.name}"
                    if full in WALL_CLOCK_SOURCES:
                        yield Finding(
                            rule=self.id, path=module.relpath,
                            line=node.lineno,
                            message=f"imports wall-clock symbol {full}",
                        )
            elif isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Name) and node.id in aliases.symbols
            ):
                resolved = aliases.resolve(node)
                if resolved in WALL_CLOCK_SOURCES:
                    yield Finding(
                        rule=self.id, path=module.relpath, line=node.lineno,
                        message=f"wall-clock use of {resolved}",
                    )


class UnseededRngRule(Rule):
    """Ban global-state RNG calls in favor of injected generators.

    ``np.random.default_rng(seed)`` / ``SeedSequence`` give every solve
    and campaign cell its own stream; module-level ``random.*`` and
    legacy ``np.random.*`` calls share hidden global state that worker
    scheduling can interleave differently run to run.
    """

    id = "no-unseeded-rng"
    summary = "no global-state random calls; inject seeded Generators"
    rationale = (
        "hidden RNG state is shared across call sites and processes; "
        "only explicit Generator/SeedSequence objects keep --jobs 1 and "
        "--jobs N byte-identical"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag global-state RNG calls and from-imports of them."""
        aliases = module.aliases
        for node in module.index.nodes:
            if isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    full = f"{node.module}.{alias.name}"
                    if is_unseeded_rng(full):
                        yield Finding(
                            rule=self.id, path=module.relpath,
                            line=node.lineno,
                            message=f"imports global-state rng {full}",
                        )
            elif isinstance(node, ast.Call):
                resolved = aliases.resolve(node.func)
                if resolved is not None and is_unseeded_rng(resolved):
                    yield Finding(
                        rule=self.id, path=module.relpath, line=node.lineno,
                        message=f"global-state rng call {resolved}",
                    )


class IterationOrderRule(Rule):
    """Flag unordered iteration feeding downstream work.

    Filesystem listings come back in inode order and sets iterate in
    hash order — both can differ between machines, runs, and ``--jobs``
    counts.  Anything iterated must go through ``sorted()`` first unless
    the consumer is order-insensitive (``len``, ``set``, ``sum``, ...).
    """

    id = "iteration-order"
    summary = "sort filesystem listings and never iterate raw sets"
    rationale = (
        "os.listdir/glob order and set order are platform/hash dependent "
        "— the classic jobs-1-vs-N nondeterminism source"
    )

    #: Call targets that return unordered filesystem listings.
    FS_CALLS = frozenset({
        "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
    })

    #: Attribute method names treated as pathlib listing calls.
    FS_METHODS = frozenset({"glob", "rglob", "iterdir"})

    #: Enclosing calls that consume in an order-insensitive way.
    ORDER_FREE = frozenset({
        "sorted", "len", "set", "frozenset", "sum", "any", "all",
        "max", "min",
    })

    #: Transparent wrappers to look through when climbing ancestors.
    WRAPPERS = frozenset({"list", "tuple"})

    def _consumed_unordered(
        self, ancestors: Iterable[ast.AST], aliases: ImportAliases
    ) -> bool:
        """True when no enclosing call (innermost first) fixes the order."""
        for ancestor in ancestors:
            name = _call_name(ancestor, aliases)
            if name is None:
                continue
            leaf = name.split(".")[-1]
            if name in self.WRAPPERS:
                continue
            return name not in self.ORDER_FREE and leaf not in self.ORDER_FREE
        return True

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag unsorted fs listings and for-loops over set expressions."""
        aliases = module.aliases
        index = module.index
        for node in index.nodes:
            if isinstance(node, ast.Call):
                resolved = aliases.resolve(node.func)
                is_fs = resolved in self.FS_CALLS or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.FS_METHODS
                    and resolved not in aliases.symbols.values()
                )
                if is_fs and self._consumed_unordered(
                    index.ancestors(node), aliases
                ):
                    label = resolved or node.func.attr
                    yield Finding(
                        rule=self.id, path=module.relpath, line=node.lineno,
                        message=(
                            f"unsorted filesystem listing {label}(...); "
                            "wrap in sorted()"
                        ),
                    )
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if isinstance(it, (ast.Set, ast.SetComp)) or _call_name(
                    it, aliases
                ) in ("set", "frozenset"):
                    yield Finding(
                        rule=self.id, path=module.relpath, line=it.lineno,
                        message=(
                            "iterating a set expression; iterate "
                            "sorted(...) instead"
                        ),
                    )


class PoolSafetyRule(Rule):
    """Guard the process-pool dispatch paths against shared-state bugs.

    In modules that fan work out to worker processes, ``global``
    statements signal parent-side state that workers will *not* see (or
    vice versa), and lambdas / nested functions handed to ``submit`` do
    not pickle.
    """

    id = "pool-safety"
    summary = "no global mutation or unpicklable callables near pools"
    rationale = (
        "worker processes get a copy of the module, not the parent's "
        "globals; mutated globals silently diverge between --jobs 1 "
        "and --jobs N"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag globals and unpicklable submissions in pool modules."""
        if not module.aliases.imports_any(POOL_MODULES):
            return
        nested: set = set()
        for node in module.index.nodes:
            in_function = node in module.index.enclosed
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_function:
                    nested.add(node.name)
            if isinstance(node, ast.Global) and in_function:
                yield Finding(
                    rule=self.id, path=module.relpath, line=node.lineno,
                    message=(
                        f"global statement ({', '.join(node.names)}) in a "
                        "process-pool module; pass state explicitly"
                    ),
                )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"
                and node.args
            ):
                first = node.args[0]
                if isinstance(first, ast.Lambda) or (
                    isinstance(first, ast.Name) and first.id in nested
                ):
                    yield Finding(
                        rule=self.id, path=module.relpath, line=node.lineno,
                        message=(
                            "unpicklable callable submitted to a pool; "
                            "use a module-level function"
                        ),
                    )


class MutableDefaultRule(Rule):
    """Flag mutable default argument values."""

    id = "mutable-default-args"
    summary = "no list/dict/set literals or constructors as defaults"
    rationale = (
        "defaults evaluate once at def time; mutation aliases across "
        "every call and every sweep cell"
    )

    _MUTABLE_CALLS = frozenset({"list", "dict", "set"})

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Flag mutable defaults on any function or lambda."""
        for node in module.index.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            name = getattr(node, "name", "<lambda>")
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(default, (
                    ast.List, ast.Dict, ast.Set,
                    ast.ListComp, ast.DictComp, ast.SetComp,
                )) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in self._MUTABLE_CALLS
                )
                if mutable:
                    yield Finding(
                        rule=self.id, path=module.relpath,
                        line=default.lineno,
                        message=f"mutable default argument on {name}()",
                    )


#: Packages whose public API must be fully documented (was the scope of
#: the old standalone ``tests/test_docstrings.py``; lint now dogfoods).
DOC_PACKAGES: Tuple[str, ...] = ("engine", "faults", "lint", "obs", "vecprice",
                                 "scenarios", "service")


class DocstringRule(Rule):
    """Docstring coverage for the observability-adjacent packages.

    The migrated ``tests/test_docstrings.py`` lint: every module, public
    class, and public function/method in :data:`DOC_PACKAGES` carries a
    docstring.  Dunders document themselves by convention; private names
    and nested closures are exempt.
    """

    id = "docstring-coverage"
    summary = ("public API of engine/faults/lint/obs/scenarios/service "
               "must be documented")
    rationale = (
        "the orchestration and tooling layers are the repo's public "
        "surface; undocumented API regresses silently without a gate"
    )

    def _in_scope(self, module: Module) -> bool:
        return any(
            module.relpath.startswith(f"repro/{pkg}/")
            for pkg in DOC_PACKAGES
        )

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Yield one finding per undocumented public definition."""
        if not self._in_scope(module):
            return
        if ast.get_docstring(module.tree) is None:
            yield Finding(
                rule=self.id, path=module.relpath, line=1,
                message="module docstring missing",
            )
        yield from self._walk(module, module.tree, prefix="")

    def _walk(
        self, module: Module, node: ast.AST, prefix: str
    ) -> Iterable[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name.startswith("_"):
                    continue
                if ast.get_docstring(child) is None:
                    yield Finding(
                        rule=self.id, path=module.relpath, line=child.lineno,
                        message=(
                            f"class {prefix}{child.name} missing docstring"
                        ),
                    )
                yield from self._walk(
                    module, child, prefix=f"{child.name}."
                )
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name.startswith("_"):
                    continue
                if ast.get_docstring(child) is None:
                    yield Finding(
                        rule=self.id, path=module.relpath, line=child.lineno,
                        message=f"def {prefix}{child.name} missing docstring",
                    )


register_rule(WallClockRule())
register_rule(UnseededRngRule())
register_rule(IterationOrderRule())
register_rule(PoolSafetyRule())
register_rule(MutableDefaultRule())
register_rule(DocstringRule())
