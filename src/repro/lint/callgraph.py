"""Per-module call-graph and dataflow extraction for the deep analyzers.

The flow-sensitive engines (:mod:`repro.lint.taint`,
:mod:`repro.lint.races`) share one extraction pass: every function in a
module is summarized into a :class:`FunctionSummary` — its calls (with
per-argument dataflow *atoms*), what its return value is made of, which
designated sinks it feeds, which module globals it writes, and which
concurrency entry points it registers.  Extraction is strictly
per-module; the whole-program fixpoint lives in each engine's ``solve``.

**Atoms** describe where a value may come from, without needing the
rest of the program at extraction time:

* ``("src", name)`` — directly produced by a nondeterminism source
  (``time.time``, an unseeded RNG call, ``os.environ``...);
* ``("call", qualname)`` — the return value of a project function,
  resolved lazily against the whole-program function table;
* ``("param", i)`` — the function's own ``i``-th parameter, bound to
  concrete sources at call sites during the interprocedural fixpoint.

The intra-procedural walk is flow-sensitive: statements are processed
in order, straight-line reassignment kills old atoms, and branches
merge by union.  Loop bodies are processed twice so loop-carried taint
is observed.  Everything here is stdlib-only (``ast``), like the rest
of ``repro.lint``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import Module

#: Atom tuples are (tag, payload) / (tag, payload, extra); see module doc.
Atom = Tuple[str, ...]

#: Wall-clock reads: taint sources here, banned uses for the basic
#: ``no-wall-clock`` rule.
WALL_CLOCK_SOURCES = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: The sanctioned clock seams: modules that own a real clock on purpose.
#: ``no-wall-clock`` skips them and they never seed taint.
CLOCK_SEAMS = frozenset({
    "repro/obs/tracer.py",
    "repro/engine/executor.py",
    "repro/service/broker.py",
})

#: Environment / host-identity reads that vary between machines and runs.
ENV_SOURCES = frozenset({
    "os.getenv", "os.environ.get", "os.urandom", "os.getpid",
    "uuid.uuid1", "uuid.uuid4", "socket.gethostname",
})

#: Non-call attribute reads that are sources by themselves.
ENV_ATTR_SOURCES = frozenset({"os.environ"})

#: Seeded numpy.random constructors, fine to call anywhere.
NP_RNG_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Seeded stdlib random constructors.
STDLIB_RNG_ALLOWED = frozenset({"Random", "SystemRandom"})

#: Imports that mark a module as pool-dispatching.
POOL_MODULES = ("concurrent.futures", "multiprocessing")

#: Method leaf names treated as pricing sinks wherever they are called.
PRICING_SINK_LEAVES = frozenset({
    "price", "price_trace", "price_batch", "price_profile",
})

#: Resolved callables treated as serialized-output sinks.
SERIALIZED_SINKS = frozenset({"json.dump", "json.dumps"})

#: Cache-key sinks: content addressing and raw digest constructors.
CACHE_KEY_LEAVES = frozenset({"content_address", "query_key", "cache_key"})
CACHE_KEY_CALLS = frozenset({
    "hashlib.sha256", "hashlib.sha1", "hashlib.md5", "hashlib.blake2b",
})

#: Container-mutating method names for the global-write detector.
MUTATOR_METHODS = frozenset({
    "append", "add", "update", "extend", "insert", "pop", "popitem",
    "clear", "setdefault", "remove", "discard", "sort",
})

#: Calls that bind the returned process-wide observability singleton.
OBS_GETTERS = {"get_metrics": "metrics registry", "get_tracer": "tracer"}

#: Pool/thread dispatch method leaves and constructors.
POOL_DISPATCH_LEAVES = frozenset({"submit", "map"})
THREAD_CONSTRUCTORS = frozenset({"threading.Thread", "Thread"})


def sink_kind(resolved: Optional[str], leaf: str) -> Optional[str]:
    """Classify a call as a sink: pricing / serialized-output / cache-key."""
    if resolved in SERIALIZED_SINKS:
        return "serialized-output"
    if resolved in CACHE_KEY_CALLS:
        return "cache-key"
    if leaf in PRICING_SINK_LEAVES:
        return "pricing"
    if leaf in CACHE_KEY_LEAVES:
        return "cache-key"
    return None


def is_unseeded_rng(resolved: str) -> bool:
    """True for a global-state ``random.*`` or ``numpy.random.*`` name."""
    parts = resolved.split(".")
    if len(parts) == 2 and parts[0] == "random":
        return parts[1] not in STDLIB_RNG_ALLOWED
    return (len(parts) == 3 and parts[:2] == ["numpy", "random"]
            and parts[2] not in NP_RNG_ALLOWED)


def classify_source(resolved: Optional[str]) -> Optional[str]:
    """The nondeterminism-source label for a resolved call target."""
    if resolved is None:
        return None
    if resolved in WALL_CLOCK_SOURCES:
        return f"wall-clock {resolved}"
    if resolved in ENV_SOURCES:
        return f"environment {resolved}"
    if is_unseeded_rng(resolved):
        return f"unseeded-rng {resolved}"
    return None


@dataclass
class CallRecord:
    """One call site: resolved callee plus per-argument atom sets."""

    callee: str
    line: int
    args: List[List[Atom]] = field(default_factory=list)
    kwargs: Dict[str, List[Atom]] = field(default_factory=dict)


@dataclass
class SinkFlow:
    """Atoms flowing into one sink call."""

    sink: str  #: display label of the callee
    kind: str  #: pricing / serialized-output / cache-key
    line: int
    atoms: List[Atom] = field(default_factory=list)


@dataclass
class SubmitRecord:
    """One concurrency dispatch: pool submit/map or Thread(target=...)."""

    domain: str  #: "process-pool" or "thread"
    target: Optional[str]  #: resolved worker callable, when known
    line: int
    #: Pickle-hazard descriptors: ("callable"|"arg", "lambda"|"nested <f>")
    hazards: List[List[str]] = field(default_factory=list)


@dataclass
class FunctionSummary:
    """Everything the solvers need to know about one function."""

    qualname: str
    line: int
    params: List[str] = field(default_factory=list)
    calls: List[CallRecord] = field(default_factory=list)
    returns: List[Atom] = field(default_factory=list)
    sinks: List[SinkFlow] = field(default_factory=list)
    global_decls: List[Tuple[str, int]] = field(default_factory=list)
    global_writes: List[Tuple[str, int, str]] = field(default_factory=list)
    obs_mutations: List[Tuple[int, str, str]] = field(default_factory=list)
    submits: List[SubmitRecord] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Per-module extraction result shared by the deep engines."""

    name: str  #: dotted module name
    relpath: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: ``{local dotted name -> imported dotted target}`` for re-export
    #: resolution (``repro.closedloop.make_mission`` -> the missions module).
    export_aliases: Dict[str, str] = field(default_factory=dict)
    #: Module-level names bound to mutable containers, name -> line.
    top_mutables: Dict[str, int] = field(default_factory=dict)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "defaultdict", "deque", "OrderedDict", "Counter",
})


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


class _Resolver:
    """Dotted-name resolution for one module: defs, methods, imports."""

    def __init__(self, module: Module):
        self.module = module
        self.aliases = module.aliases
        self.top_defs: Dict[str, str] = {}
        self.methods: Dict[str, Set[str]] = {}
        for node in ast.iter_child_nodes(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.top_defs[node.name] = f"{module.name}.{node.name}"
            elif isinstance(node, ast.ClassDef):
                self.top_defs[node.name] = f"{module.name}.{node.name}"
                names = {
                    child.name for child in ast.iter_child_nodes(node)
                    if isinstance(child,
                                  (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                self.methods[node.name] = names

    def resolve(self, node: ast.AST, cls: Optional[str]) -> Optional[str]:
        """Canonical dotted target of a Name/Attribute, best effort."""
        if isinstance(node, ast.Name):
            if node.id in self.top_defs:
                return self.top_defs[node.id]
            return self.aliases.resolve(node)
        if isinstance(node, ast.Attribute):
            # self.method() inside a class resolves to the sibling method.
            if (
                cls is not None
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
                and node.attr in self.methods.get(cls, ())
            ):
                return f"{self.module.name}.{cls}.{node.attr}"
            return self.aliases.resolve(node)
        return None


def _leaf(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


class _FunctionWalker:
    """Flow-sensitive intra-procedural walk of one function body."""

    def __init__(self, resolver: _Resolver, summary: FunctionSummary,
                 cls: Optional[str], root_pkg: str,
                 nested_names: Set[str], uses_pools: bool):
        self.resolver = resolver
        self.summary = summary
        self.cls = cls
        self.root_pkg = root_pkg
        self.nested_names = nested_names
        self.uses_pools = uses_pools
        self.env: Dict[str, FrozenSet[Atom]] = {
            name: frozenset({("param", str(i))})
            for i, name in enumerate(summary.params)
        }
        #: Local names bound to get_metrics()/get_tracer() results.
        self.obs_locals: Dict[str, str] = {}

    # -- expression atoms ----------------------------------------------------

    def atoms_of(self, node: Optional[ast.AST]) -> FrozenSet[Atom]:
        """The atom set an expression's value may carry."""
        if node is None or isinstance(node, ast.Constant):
            return frozenset()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Call):
            return self._call_atoms(node)
        if isinstance(node, ast.Attribute):
            resolved = self.resolver.resolve(node, self.cls)
            if resolved in ENV_ATTR_SOURCES:
                return frozenset({("src", f"environment {resolved}")})
            if resolved in WALL_CLOCK_SOURCES:
                return frozenset({("src", f"wall-clock {resolved}")})
            return self.atoms_of(node.value)
        if isinstance(node, (ast.BinOp,)):
            return self.atoms_of(node.left) | self.atoms_of(node.right)
        if isinstance(node, ast.BoolOp):
            out: FrozenSet[Atom] = frozenset()
            for value in node.values:
                out |= self.atoms_of(value)
            return out
        if isinstance(node, ast.Compare):
            out = self.atoms_of(node.left)
            for comp in node.comparators:
                out |= self.atoms_of(comp)
            return out
        if isinstance(node, ast.UnaryOp):
            return self.atoms_of(node.operand)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = frozenset()
            for elt in node.elts:
                out |= self.atoms_of(elt)
            return out
        if isinstance(node, ast.Dict):
            out = frozenset()
            for key in node.keys:
                if key is not None:
                    out |= self.atoms_of(key)
            for value in node.values:
                out |= self.atoms_of(value)
            return out
        if isinstance(node, ast.Subscript):
            return self.atoms_of(node.value) | self.atoms_of(node.slice)
        if isinstance(node, ast.IfExp):
            return (self.atoms_of(node.body) | self.atoms_of(node.test)
                    | self.atoms_of(node.orelse))
        if isinstance(node, ast.JoinedStr):
            out = frozenset()
            for value in node.values:
                out |= self.atoms_of(value)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.atoms_of(node.value)
        if isinstance(node, ast.Starred):
            return self.atoms_of(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            out = self.atoms_of(node.elt)
            for gen in node.generators:
                out |= self.atoms_of(gen.iter)
            return out
        if isinstance(node, ast.DictComp):
            out = self.atoms_of(node.key) | self.atoms_of(node.value)
            for gen in node.generators:
                out |= self.atoms_of(gen.iter)
            return out
        if isinstance(node, ast.Await):
            return self.atoms_of(node.value)
        if isinstance(node, ast.NamedExpr):
            atoms = self.atoms_of(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = atoms
            return atoms
        return frozenset()

    def _call_atoms(self, node: ast.Call) -> FrozenSet[Atom]:
        resolved = self.resolver.resolve(node.func, self.cls)
        leaf = _leaf(node.func)
        source = classify_source(resolved)
        arg_atoms = [self.atoms_of(a) for a in node.args]
        kw_atoms = {kw.arg: self.atoms_of(kw.value)
                    for kw in node.keywords if kw.arg is not None}
        for kw in node.keywords:  # **kwargs expansion
            if kw.arg is None:
                kw_atoms.setdefault("**", self.atoms_of(kw.value))

        # Record the call for the interprocedural fixpoint + reachability.
        is_project = (resolved is not None
                      and resolved.split(".")[0] == self.root_pkg)
        if is_project:
            call_record = CallRecord(
                callee=resolved, line=node.lineno,
                args=[sorted(a) for a in arg_atoms],
                kwargs={k: sorted(v) for k, v in kw_atoms.items()
                        if k != "**"},
            )
            if call_record not in self.summary.calls:
                self.summary.calls.append(call_record)

        # Sink classification (independent of project resolution: pricing
        # sinks are usually method calls on unresolvable instances).
        kind = sink_kind(resolved, leaf)
        if kind is not None:
            flowing: FrozenSet[Atom] = frozenset()
            for a in arg_atoms:
                flowing |= a
            for a in kw_atoms.values():
                flowing |= a
            if flowing:
                sink_record = SinkFlow(
                    sink=resolved or leaf, kind=kind, line=node.lineno,
                    atoms=sorted(flowing),
                )
                if sink_record not in self.summary.sinks:
                    self.summary.sinks.append(sink_record)

        # Concurrency dispatches and in-place mutation of module globals.
        self._record_submit(node, resolved, leaf)
        self._check_mutator_call(node, self.top_mutables)

        if source is not None:
            return frozenset({("src", source)})
        if is_project:
            return frozenset({("call", resolved)})
        # Unknown / stdlib call: assume it may pass its arguments through
        # (max(), float(), np.clip() all do).
        out: FrozenSet[Atom] = frozenset()
        for a in arg_atoms:
            out |= a
        for a in kw_atoms.values():
            out |= a
        if isinstance(node.func, ast.Attribute):
            out |= self.atoms_of(node.func.value)
        return out

    # -- concurrency dispatch records ---------------------------------------

    def _hazard(self, node: ast.AST, position: str) -> Optional[List[str]]:
        if isinstance(node, ast.Lambda):
            return [position, "lambda"]
        if isinstance(node, ast.Name) and node.id in self.nested_names:
            return [position, f"nested function {node.id}"]
        return None

    def _record_submit(self, node: ast.Call, resolved: Optional[str],
                       leaf: str) -> None:
        domain = None
        target_node: Optional[ast.AST] = None
        hazard_args: Sequence[ast.AST] = ()
        if (
            self.uses_pools
            and isinstance(node.func, ast.Attribute)
            and leaf in POOL_DISPATCH_LEAVES
            and node.args
        ):
            domain = "process-pool"
            target_node = node.args[0]
            hazard_args = node.args[1:]
        elif resolved in THREAD_CONSTRUCTORS or (
            resolved is not None and resolved.endswith("threading.Thread")
        ):
            domain = "thread"
            for kw in node.keywords:
                if kw.arg == "target":
                    target_node = kw.value
            hazard_args = node.args
        if domain is None:
            return
        target = (self.resolver.resolve(target_node, self.cls)
                  if target_node is not None else None)
        hazards: List[List[str]] = []
        if target_node is not None and domain == "process-pool":
            hz = self._hazard(target_node, "callable")
            if hz and leaf == "map":
                # submit-position lambdas belong to the basic pool-safety
                # rule; map() callables are this rule's to report.
                hazards.append(hz)
        for arg in hazard_args:
            hz = self._hazard(arg, "argument")
            if hz:
                hazards.append(hz)
        record = SubmitRecord(
            domain=domain, target=target, line=node.lineno, hazards=hazards,
        )
        if record not in self.summary.submits:
            self.summary.submits.append(record)

    # -- statements ----------------------------------------------------------

    def _bind(self, target: ast.AST, atoms: FrozenSet[Atom]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = atoms
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, atoms)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, atoms)
        # Attribute/subscript targets do not bind local names.

    def _check_global_write(self, stmt: ast.stmt,
                            top_mutables: Dict[str, int]) -> None:
        """Record writes that hit module-global mutable containers."""
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            base = target
            how = "assignment"
            if isinstance(base, ast.Subscript):
                base = base.value
                how = "item assignment"
            elif isinstance(base, ast.Attribute):
                base = base.value
                how = "attribute assignment"
            if (
                isinstance(base, ast.Name)
                and base.id in top_mutables
                and base.id not in self.env  # shadowed by a local binding
                and how != "assignment"
            ):
                record = (base.id, stmt.lineno, how)
                if record not in self.summary.global_writes:
                    self.summary.global_writes.append(record)

    def _check_mutator_call(self, node: ast.Call,
                            top_mutables: Dict[str, int]) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in top_mutables
            and func.value.id not in self.env
        ):
            record = (func.value.id, node.lineno, f"{func.attr}() call")
            if record not in self.summary.global_writes:
                self.summary.global_writes.append(record)

    def _check_obs_mutation(self, stmt: ast.stmt) -> None:
        if not isinstance(stmt, (ast.Assign, ast.AugAssign)):
            return
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in self.obs_locals
            ):
                record = (stmt.lineno, target.attr,
                          self.obs_locals[target.value.id])
                if record not in self.summary.obs_mutations:
                    self.summary.obs_mutations.append(record)

    def run(self, body: Sequence[ast.stmt],
            top_mutables: Dict[str, int]) -> None:
        """Process the function body statements in order."""
        self.top_mutables = top_mutables
        self._block(body)

    def _block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        # Track obs-singleton bindings before generic assignment handling.
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            leaf = _leaf(stmt.value.func)
            if leaf in OBS_GETTERS:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.obs_locals[target.id] = OBS_GETTERS[leaf]
        self._check_obs_mutation(stmt)
        self._check_global_write(stmt, self.top_mutables)

        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            atoms = self.atoms_of(stmt.value)
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                self._bind(target, atoms)
        elif isinstance(stmt, ast.AugAssign):
            atoms = self.atoms_of(stmt.value)
            if isinstance(stmt.target, ast.Name):
                atoms = atoms | self.env.get(stmt.target.id, frozenset())
                self.env[stmt.target.id] = atoms
        elif isinstance(stmt, ast.Return):
            for atom in sorted(self.atoms_of(stmt.value)):
                if atom not in self.summary.returns:
                    self.summary.returns.append(atom)
        elif isinstance(stmt, ast.Expr):
            self._scan_calls(stmt.value)
        elif isinstance(stmt, ast.Global):
            record = (", ".join(stmt.names), stmt.lineno)
            if record not in self.summary.global_decls:
                self.summary.global_decls.append(record)
        elif isinstance(stmt, (ast.If,)):
            self.atoms_of(stmt.test)
            before = dict(self.env)
            self._block(stmt.body)
            after_body = self.env
            self.env = dict(before)
            self._block(stmt.orelse)
            self._merge_env(after_body)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self.atoms_of(stmt.iter))
            self._block(stmt.body)
            self._block(stmt.body)  # second pass: loop-carried atoms
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.While,)):
            self.atoms_of(stmt.test)
            self._block(stmt.body)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                atoms = self.atoms_of(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, atoms)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            before = dict(self.env)
            self._block(stmt.body)
            merged = self.env
            for handler in stmt.handlers:
                self.env = dict(before)
                self._block(handler.body)
                self._merge_env(merged)
                merged = self.env
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                self._scan_calls(stmt.exc)
            if isinstance(stmt, ast.Assert):
                self._scan_calls(stmt.test)
        # Nested defs/classes are summarized separately; skip here.

    def _merge_env(self, other: Dict[str, FrozenSet[Atom]]) -> None:
        for name, atoms in other.items():
            self.env[name] = self.env.get(name, frozenset()) | atoms

    def _scan_calls(self, node: ast.AST) -> None:
        """Evaluate an expression purely for its call/sink side effects."""
        self.atoms_of(node)


def summarize_module(module: Module) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` the deep engines solve over."""
    summary = ModuleSummary(name=module.name, relpath=module.relpath)
    resolver = _Resolver(module)
    root_pkg = module.name.split(".")[0]
    uses_pools = module.aliases.imports_any(POOL_MODULES)
    # Nested-def names per enclosing def, from one pass over the index.
    index = module.index
    nested: Dict[ast.AST, Set[str]] = {}
    for node in index.nodes:
        if isinstance(node, _DEFS) and node in index.enclosed:
            for outer in index.ancestors(node):
                if isinstance(outer, _DEFS):
                    nested.setdefault(outer, set()).add(node.name)

    # Re-export aliases: ``from X import y`` binds ``<module>.y`` -> X.y.
    for node in ast.iter_child_nodes(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                summary.export_aliases[f"{module.name}.{local}"] = (
                    f"{node.module}.{alias.name}"
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            value = node.value
            if value is not None and _is_mutable_value(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        summary.top_mutables[target.id] = node.lineno

    def walk_function(node, qualname: str, cls: Optional[str]) -> None:
        params = [a.arg for a in (
            node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )]
        fn = FunctionSummary(qualname=qualname, line=node.lineno,
                             params=params)
        walker = _FunctionWalker(resolver, fn, cls, root_pkg,
                                 nested.get(node, set()), uses_pools)
        walker.run(node.body, summary.top_mutables)
        summary.functions[qualname] = fn

    for node in ast.iter_child_nodes(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walk_function(node, f"{module.name}.{node.name}", None)
        elif isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk_function(
                        child, f"{module.name}.{node.name}.{child.name}",
                        node.name,
                    )
    return summary


class FunctionTable:
    """Whole-program view over every module's summaries.

    Resolves callee names through package re-export aliases
    (``repro.closedloop.make_mission`` -> the defining module's qualname)
    and offers call-graph reachability — shared by the taint and race
    solvers.
    """

    def __init__(self, summaries: Dict[str, ModuleSummary]):
        self.functions: Dict[str, FunctionSummary] = {}
        self.module_of: Dict[str, str] = {}
        self.aliases: Dict[str, str] = {}
        for relpath in sorted(summaries):
            summary = summaries[relpath]
            self.aliases.update(summary.export_aliases)
            for qualname, fn in summary.functions.items():
                self.functions[qualname] = fn
                self.module_of[qualname] = relpath

    def resolve(self, name: Optional[str]) -> Optional[str]:
        """Follow re-export aliases until a known function (or dead end)."""
        seen = set()
        while name is not None and name not in self.functions:
            if name in seen:
                return None
            seen.add(name)
            name = self.aliases.get(name)
        return name

    def reachable_from(self, entries: Sequence[str]) -> Dict[str, Tuple[str, ...]]:
        """Functions reachable from ``entries``; value = call chain."""
        chains: Dict[str, Tuple[str, ...]] = {}
        frontier: List[Tuple[str, Tuple[str, ...]]] = []
        for entry in sorted(set(entries)):
            resolved = self.resolve(entry)
            if resolved is not None and resolved not in chains:
                chains[resolved] = (resolved,)
                frontier.append((resolved, (resolved,)))
        while frontier:
            qualname, chain = frontier.pop(0)
            fn = self.functions.get(qualname)
            if fn is None:
                continue
            callees = sorted({c.callee for c in fn.calls})
            for callee in callees:
                resolved = self.resolve(callee)
                if resolved is None or resolved in chains:
                    continue
                next_chain = chain + (resolved,) if len(chain) < 8 else chain
                chains[resolved] = next_chain
                frontier.append((resolved, next_chain))
        return chains
