"""Tests for the ``repro.lint`` static-analysis framework.

Covers every shipped rule with at least one violating and one clean
fixture, the suppression-pragma and baseline round trips, the
import-graph layering rule (including the synthetic ``kernels ->
engine`` rejection), and the coupling between the rule registry and
the documentation: the architecture mermaid arrows and rule table, and
the ``docs/static-analysis.md`` catalog.
"""

import ast
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    ALLOWED,
    Baseline,
    DEFERRED_ALLOWED,
    GROUPS,
    default_root,
    group_of,
    render_json,
    render_rule_table,
    rule_ids,
    run_lint,
    scan_root,
)
from repro.lint.rules import NodeIndex

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

EXPECTED_RULES = {
    "layering", "no-wall-clock", "no-unseeded-rng", "iteration-order",
    "pool-safety", "mutable-default-args", "docstring-coverage",
    "pragma-hygiene", "facade-only-imports", "arch-constants",
    # Deep (whole-program) rules, run under --analyze deep.
    "taint-determinism", "worker-shared-state", "pool-pickle-safety",
    "api-contract",
}


def make_tree(tmp_path, files):
    """Write a synthetic ``repro`` package tree and return its root."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def lint_tree(tmp_path, files, rules):
    """Lint a synthetic tree with a rule subset; return the findings."""
    root = make_tree(tmp_path, files)
    result = run_lint(root=root, rules=rules, use_baseline=False)
    return result.findings


def rules_hit(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------- registry


def test_registry_ships_the_documented_rules():
    assert set(rule_ids()) == EXPECTED_RULES


def test_unknown_rule_id_is_an_error():
    with pytest.raises(KeyError, match="unknown rule id"):
        run_lint(rules=["not-a-rule"])


# --------------------------------------------------------------- node index


def test_node_index_orders_parents_and_scopes_every_node():
    tree = ast.parse(textwrap.dedent("""
        @decorate(1)
        def f(x=2):
            class Inner:
                y = 3 * x
            return lambda z: -z

        async def g():
            await h()
    """))
    index = NodeIndex(tree)
    # CPython shares one ``Load``/``Mult``/``USub``... instance between
    # parents; the index leaves those out.
    shared = (ast.expr_context, ast.boolop, ast.operator, ast.unaryop,
              ast.cmpop)

    def children(node):
        return [c for c in ast.iter_child_nodes(node)
                if not isinstance(c, shared)]

    def pre_order(node):
        yield node
        for child in children(node):
            yield from pre_order(child)

    walked = [n for n in ast.walk(tree) if not isinstance(n, shared)]
    assert len(index.nodes) == len(walked)
    assert {id(n) for n in index.nodes} == {id(n) for n in walked}
    assert index.nodes == list(pre_order(tree))

    assert tree not in index.parent
    for node in walked:
        for child in children(node):
            assert index.parent[child] is node

    f, g = tree.body
    inner, ret = f.body
    lam = ret.value
    # A decorator and a default count as enclosed by their def.
    enclosed = {f.decorator_list[0], f.args.defaults[0], inner,
                inner.body[0], lam, lam.body, g.body[0]}
    assert enclosed <= index.enclosed
    assert not {tree, f, g} & index.enclosed
    assert index.enclosed == {
        node for node in walked
        if any(isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda))
               for a in index.ancestors(node))
    }
    assert list(index.ancestors(lam.body)) == [lam, ret, f, tree]
    assert list(index.ancestors(tree)) == []


# ------------------------------------------------------------ no-wall-clock


def test_wall_clock_flagged_outside_seams(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/util.py": """
            import time
            from time import monotonic

            def stamp():
                return time.perf_counter() + monotonic()
        """,
    }, rules=["no-wall-clock"])
    assert rules_hit(findings) == {"no-wall-clock"}
    messages = " ".join(f.message for f in findings)
    assert "time.perf_counter" in messages
    assert "time.monotonic" in messages


def test_wall_clock_allowed_in_timing_seams(tmp_path):
    findings = lint_tree(tmp_path, {
        "engine/executor.py": """
            import time
            CLOCK = time.perf_counter
        """,
        "obs/tracer.py": """
            import time

            def now():
                return time.perf_counter()
        """,
    }, rules=["no-wall-clock"])
    assert findings == []


def test_datetime_now_flagged(tmp_path):
    findings = lint_tree(tmp_path, {
        "faults/x.py": """
            import datetime

            def stamp():
                return datetime.datetime.now()
        """,
    }, rules=["no-wall-clock"])
    assert len(findings) == 1
    assert "datetime.datetime.now" in findings[0].message


def test_later_module_level_alias_wins_over_earlier_local_one(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/stamp.py": """
            def parse(text):
                import datetime as clock
                return clock.date.fromisoformat(text)

            import time as clock

            STAMP = clock.time()
        """,
    }, rules=["no-wall-clock"])
    assert [f.message for f in findings] == ["wall-clock use of time.time"]


# ---------------------------------------------------------- no-unseeded-rng


def test_global_state_rng_flagged(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/x.py": """
            import numpy as np
            import random
            from random import choice

            def jitter():
                return np.random.rand(3) + random.random()
        """,
    }, rules=["no-unseeded-rng"])
    messages = " ".join(f.message for f in findings)
    assert "numpy.random.rand" in messages
    assert "random.random" in messages
    assert "random.choice" in messages


def test_seeded_generators_allowed(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/x.py": """
            import numpy as np
            from numpy.random import SeedSequence, default_rng

            def draw(seed):
                rng = np.random.default_rng(SeedSequence(seed))
                return rng.normal()
        """,
    }, rules=["no-unseeded-rng"])
    assert findings == []


# ---------------------------------------------------------- iteration-order


def test_unsorted_listing_flagged(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/x.py": """
            import os
            from pathlib import Path

            def walk(d):
                for name in os.listdir(d):
                    print(name)
                return [p for p in Path(d).glob("*.json")]
        """,
    }, rules=["iteration-order"])
    assert len(findings) == 2
    assert all(f.rule == "iteration-order" for f in findings)


def test_sorted_and_order_free_listings_allowed(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/x.py": """
            import os
            from pathlib import Path

            def walk(d):
                for name in sorted(os.listdir(d)):
                    print(name)
                return len(list(Path(d).glob("*.json")))
        """,
    }, rules=["iteration-order"])
    assert findings == []


def test_set_iteration_flagged_until_sorted(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/bad.py": """
            def bad(items):
                for x in set(items):
                    print(x)
                return [y for y in {1, 2, 3}]
        """,
        "core/good.py": """
            def good(items):
                for x in sorted(set(items)):
                    print(x)
        """,
    }, rules=["iteration-order"])
    assert len(findings) == 2
    assert all(f.path == "repro/core/bad.py" for f in findings)


# -------------------------------------------------------------- pool-safety


def test_pool_module_globals_and_lambdas_flagged(tmp_path):
    findings = lint_tree(tmp_path, {
        "engine/x.py": """
            from concurrent.futures import ProcessPoolExecutor

            TOTAL = 0

            def dispatch(jobs):
                global TOTAL
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(lambda j: j, j) for j in jobs]
        """,
    }, rules=["pool-safety"])
    messages = " ".join(f.message for f in findings)
    assert "global statement (TOTAL)" in messages
    assert "unpicklable callable" in messages


def test_globals_fine_without_pools(tmp_path):
    findings = lint_tree(tmp_path, {
        "obs/x.py": """
            STATE = None

            def set_state(v):
                global STATE
                STATE = v
        """,
    }, rules=["pool-safety"])
    assert findings == []


# ----------------------------------------------------- mutable-default-args


def test_mutable_defaults_flagged(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/x.py": """
            def f(a, b=[], c={}, d=set(), *, e=dict()):
                return a
        """,
    }, rules=["mutable-default-args"])
    assert len(findings) == 4
    assert all(f.rule == "mutable-default-args" for f in findings)


def test_immutable_defaults_allowed(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/x.py": """
            def f(a, b=(), c=None, d="x", e=0):
                return a
        """,
    }, rules=["mutable-default-args"])
    assert findings == []


# ------------------------------------------------------- docstring-coverage


def test_docstring_gaps_flagged_in_scope(tmp_path):
    findings = lint_tree(tmp_path, {
        "engine/x.py": """
            class Public:
                def method(self):
                    return 1

                def _private(self):
                    return 2
        """,
    }, rules=["docstring-coverage"])
    messages = {f.message for f in findings}
    assert "module docstring missing" in messages
    assert "class Public missing docstring" in messages
    assert "def Public.method missing docstring" in messages
    assert len(findings) == 3  # _private is exempt


def test_docstrings_not_required_outside_scope(tmp_path):
    findings = lint_tree(tmp_path, {
        "mcu/x.py": """
            def undocumented():
                return 1
        """,
    }, rules=["docstring-coverage"])
    assert findings == []


# ------------------------------------------------- suppression + pragmas


def test_same_line_pragma_suppresses(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/x.py": """
            import os

            def walk(d):
                for n in os.listdir(d):  # repro: lint-ignore[iteration-order]
                    print(n)
        """,
    }, rules=["iteration-order"])
    assert findings == []


def test_preceding_comment_pragma_suppresses(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/x.py": """
            def f(
                # repro: lint-ignore[mutable-default-args]
                x=[],
            ):
                return x
        """,
    }, rules=["mutable-default-args"])
    assert findings == []


def test_bare_pragma_suppresses_all_rules(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/x.py": """
            import os

            def f(d, x=[]):  # repro: lint-ignore
                return os.listdir(d), x  # repro: lint-ignore
        """,
    }, rules=["iteration-order", "mutable-default-args"])
    assert findings == []


def test_pragma_with_unknown_rule_is_a_finding(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/x.py": """
            X = 1  # repro: lint-ignore[no-such-rule]
        """,
    }, rules=["pragma-hygiene"])
    assert len(findings) == 1
    assert "unknown rule 'no-such-rule'" in findings[0].message


def test_suppressed_findings_are_counted(tmp_path):
    root = make_tree(tmp_path, {
        "core/x.py": """
            def f(x=[]):  # repro: lint-ignore[mutable-default-args]
                return x
        """,
    })
    result = run_lint(root=root, rules=["mutable-default-args"],
                      use_baseline=False)
    assert result.findings == []
    assert result.suppressed == 1


# ----------------------------------------------------------------- baseline


def test_baseline_round_trip(tmp_path):
    files = {
        "core/x.py": """
            def f(x=[]):
                return x
        """,
    }
    root = make_tree(tmp_path, files)
    baseline_path = tmp_path / "baseline.json"

    first = run_lint(root=root, rules=["mutable-default-args"],
                     use_baseline=False)
    assert len(first.all_findings) == 1
    Baseline.from_findings(first.all_findings).save(baseline_path)

    second = run_lint(root=root, rules=["mutable-default-args"],
                      baseline_path=baseline_path)
    assert second.clean
    assert second.baselined == 1
    assert second.stale_baseline == []


def test_new_finding_not_absorbed_by_baseline(tmp_path):
    root = make_tree(tmp_path, {
        "core/x.py": """
            def f(x=[]):
                return x
        """,
    })
    baseline_path = tmp_path / "baseline.json"
    first = run_lint(root=root, rules=["mutable-default-args"],
                     use_baseline=False)
    Baseline.from_findings(first.all_findings).save(baseline_path)

    (root / "core" / "x.py").write_text(textwrap.dedent("""
        def f(x=[]):
            return x

        def g(y={}):
            return y
    """))
    result = run_lint(root=root, rules=["mutable-default-args"],
                      baseline_path=baseline_path)
    assert len(result.findings) == 1
    assert "g()" in result.findings[0].message
    assert result.baselined == 1


def test_stale_baseline_entries_reported(tmp_path):
    root = make_tree(tmp_path, {"core/x.py": '"""Clean."""\n'})
    baseline_path = tmp_path / "baseline.json"
    Baseline(counts={"mutable-default-args::repro/core/gone.py::x": 1}).save(
        baseline_path
    )
    result = run_lint(root=root, baseline_path=baseline_path)
    assert result.clean
    assert result.stale_baseline == [
        "mutable-default-args::repro/core/gone.py::x"
    ]


def test_baseline_fingerprints_survive_line_moves(tmp_path):
    root = make_tree(tmp_path, {
        "core/x.py": """
            def f(x=[]):
                return x
        """,
    })
    baseline_path = tmp_path / "baseline.json"
    first = run_lint(root=root, rules=["mutable-default-args"],
                     use_baseline=False)
    Baseline.from_findings(first.all_findings).save(baseline_path)

    # Shift the finding down ten lines; the fingerprint must still match.
    (root / "core" / "x.py").write_text(
        "# padding\n" * 10 + textwrap.dedent("""
            def f(x=[]):
                return x
        """)
    )
    result = run_lint(root=root, rules=["mutable-default-args"],
                      baseline_path=baseline_path)
    assert result.clean
    assert result.baselined == 1


# ----------------------------------------------------------------- layering


def test_layering_rejects_synthetic_kernels_to_engine_import(tmp_path):
    findings = lint_tree(tmp_path, {
        "attitude/evil.py": """
            from repro.engine import EngineOptions
        """,
    }, rules=["layering"])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "layering"
    assert finding.path == "repro/attitude/evil.py"
    assert "'kernels' may not depend on 'engine'" in finding.message


def test_layering_rejects_deferred_import_on_non_seam_edge(tmp_path):
    findings = lint_tree(tmp_path, {
        "mcu/evil.py": """
            def sneak():
                import repro.faults
                return repro.faults
        """,
    }, rules=["layering"])
    assert len(findings) == 1
    assert "'mcu' may not depend on 'faults'" in findings[0].message


def test_layering_seam_is_deferred_only(tmp_path):
    module_level = lint_tree(tmp_path / "a", {
        "core/x.py": """
            import repro.attitude.suite
        """,
    }, rules=["layering"])
    assert len(module_level) == 1
    assert "deferred-only" in module_level[0].message

    deferred = lint_tree(tmp_path / "b", {
        "core/y.py": """
            def populate():
                import repro.attitude.suite
        """,
    }, rules=["layering"])
    assert deferred == []

    # core -> engine is no seam: even a function-scope import is a finding.
    engine = lint_tree(tmp_path / "c", {
        "core/z.py": """
            def delegate():
                from repro.engine import run_sweep_engine
                return run_sweep_engine
        """,
    }, rules=["layering"])
    assert len(engine) == 1
    assert "'core' may not depend on 'engine'" in engine[0].message


def test_layering_flags_unmapped_package(tmp_path):
    findings = lint_tree(tmp_path, {
        "newpkg/x.py": """
            X = 1
        """,
    }, rules=["layering"])
    assert len(findings) == 1
    assert "not in the layer map" in findings[0].message


def test_group_of_maps_known_modules():
    assert group_of("repro.engine.executor") == "engine"
    assert group_of("repro.attitude.filters") == "kernels"
    assert group_of("repro.scalar") == "data"
    assert group_of("repro") == "cli"
    assert group_of("numpy.random") is None


def test_every_scanned_module_is_in_the_layer_map():
    for module in scan_root(default_root()):
        assert group_of(module.name) is not None, module.name


# ------------------------------------------------------- facade-only-imports


def test_facade_rule_flags_deep_imports_from_analysis(tmp_path):
    findings = lint_tree(tmp_path, {
        "analysis/study.py": """
            from repro.engine import EngineOptions

            def table():
                from repro.core.experiment import SweepSpec
                return SweepSpec, EngineOptions
        """,
    }, rules=["facade-only-imports"])
    assert rules_hit(findings) == {"facade-only-imports"}
    assert len(findings) == 2
    assert all("repro.api" in f.message for f in findings)


def test_facade_rule_passes_facade_and_building_block_imports(tmp_path):
    findings = lint_tree(tmp_path, {
        "analysis/study.py": """
            from repro.api import SweepSpec, sweep
            from repro.core.experiment_io import result_to_dict
            from repro.core.config import HarnessConfig
            from repro.mcu.arch import CHARACTERIZATION_ARCHS
        """,
    }, rules=["facade-only-imports"])
    assert findings == []


def test_facade_rule_ignores_non_consumer_groups(tmp_path):
    findings = lint_tree(tmp_path, {
        "cli.py": """
            from repro.engine import EngineOptions
        """,
        "service/broker.py": """
            from repro.faults import run_campaign
        """,
        "api.py": """
            from repro.service import ServiceBroker
        """,
    }, rules=["facade-only-imports"])
    assert findings == []


def test_facade_rule_scans_examples_and_benchmarks_trees(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    external = {
        "examples/demo.py": "from repro.closedloop import FlappingWingRunner\n",
        "examples/ok.py": "from repro.api import run_mission\n",
        "benchmarks/bench_x.py": "from repro.core import experiment\n",
    }
    for rel, source in external.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    findings = lint_tree(tmp_path, {
        "analysis/__init__.py": "",
    }, rules=["facade-only-imports"])
    assert [f.path for f in findings] == [
        "benchmarks/bench_x.py", "examples/demo.py",
    ]
    assert all(f.rule == "facade-only-imports" for f in findings)


def test_facade_rule_skips_external_scan_without_repo_anchor(tmp_path):
    findings = lint_tree(tmp_path, {
        "analysis/__init__.py": "",
    }, rules=["facade-only-imports"])
    assert findings == []


# ------------------------------------------------------------ arch-constants


def test_arch_constants_flags_spec_outside_backends(tmp_path):
    findings = lint_tree(tmp_path, {
        "mcu/extra.py": """
            from repro.mcu.arch import ArchSpec

            M55 = ArchSpec(name="m55")
        """,
    }, rules=["arch-constants"])
    assert rules_hit(findings) == {"arch-constants"}
    assert "ArchSpec" in findings[0].message


def test_arch_constants_flags_cost_table_names(tmp_path):
    findings = lint_tree(tmp_path, {
        "engine/tables.py": """
            _SOFT_F32 = {"fadd": 30}
            _ARCH_FACTORS = {"m4": (1.0, 1.0, 1.0, 1.0)}
            FLOAT_CPI = {"fadd": 1}
        """,
    }, rules=["arch-constants"])
    assert len(findings) == 3
    assert all(f.rule == "arch-constants" for f in findings)


def test_arch_constants_allows_backends_package(tmp_path):
    findings = lint_tree(tmp_path, {
        "backends/custom.py": """
            from repro.mcu.arch import ArchSpec

            _SOFT_F32 = {"fadd": 30}
            XCORE = ArchSpec(name="xcore")
        """,
    }, rules=["arch-constants"])
    assert findings == []


def test_arch_constants_allows_function_scope_construction(tmp_path):
    findings = lint_tree(tmp_path, {
        "faults/power.py": """
            from repro.mcu.arch import PowerSpec

            def sagged(spec, factor):
                return PowerSpec(active_mw=spec.active_mw * factor)
        """,
    }, rules=["arch-constants"])
    assert findings == []


def test_arch_constants_ignores_benign_constants(tmp_path):
    findings = lint_tree(tmp_path, {
        "core/config.py": """
            DEFAULT_REPS = 3
            _HW_REVISIONS = object  # not an assignment call or table dict
        """,
    }, rules=["arch-constants"])
    # _HW_REVISIONS matches the table-name convention on purpose: naming
    # a constant like a cost table is itself the smell being policed.
    assert len(findings) == 1


def test_arch_constants_clean_on_the_real_tree():
    result = run_lint(root=SRC, rules=["arch-constants"], use_baseline=False)
    assert result.findings == []


# --------------------------------------------------- docs <-> rules coupling


def test_architecture_doc_embeds_the_rule_table_verbatim():
    doc = (REPO / "docs" / "architecture.md").read_text()
    assert render_rule_table() in doc, (
        "docs/architecture.md is out of date: paste the output of "
        "repro.lint.layering.render_rule_table()"
    )


def _mermaid_arrows():
    doc = (REPO / "docs" / "architecture.md").read_text()
    block = re.search(r"```mermaid\n(.*?)```", doc, re.DOTALL).group(1)
    solid = re.findall(r"^\s*(\w+) --> (\w+)$", block, re.MULTILINE)
    dotted = re.findall(r"^\s*(\w+) -\.->(?:\|[^|]*\|)? (\w+)$",
                        block, re.MULTILINE)
    return solid, dotted


def test_mermaid_arrows_match_the_checked_table():
    solid, dotted = _mermaid_arrows()
    assert solid and dotted, "mermaid diagram lost its arrows"
    for src, dst in solid:
        assert src in GROUPS and dst in GROUPS, (src, dst)
        assert dst in ALLOWED[src], (
            f"architecture.md draws {src} --> {dst}, which the layering "
            "rule would reject"
        )
    for src, dst in dotted:
        assert (dst in ALLOWED[src]) or ((src, dst) in DEFERRED_ALLOWED), (
            f"architecture.md draws dotted {src} -.-> {dst}, which the "
            "layering rule would reject"
        )


def test_every_deferred_seam_is_drawn_dotted():
    _, dotted = _mermaid_arrows()
    for (src, dst) in DEFERRED_ALLOWED:
        assert (src, dst) in dotted, (
            f"deferred seam {src} -> {dst} missing from the mermaid map"
        )


def test_static_analysis_doc_catalog_matches_registry():
    doc = (REPO / "docs" / "static-analysis.md").read_text()
    rows = re.findall(r"^\| `([a-z][a-z0-9-]*)` \|", doc, re.MULTILINE)
    assert set(rows) == set(rule_ids()), (
        "docs/static-analysis.md catalog and the rule registry disagree"
    )


# ---------------------------------------------------------------- reporters


def test_json_report_shape(tmp_path):
    root = make_tree(tmp_path, {
        "core/x.py": """
            def f(x=[]):
                return x
        """,
    })
    result = run_lint(root=root, rules=["mutable-default-args"],
                      use_baseline=False)
    payload = json.loads(render_json(result))
    assert payload["version"] == 1
    assert payload["summary"]["findings"] == 1
    assert payload["summary"]["clean"] is False
    finding = payload["findings"][0]
    assert finding["rule"] == "mutable-default-args"
    assert finding["path"] == "repro/core/x.py"
    assert finding["line"] > 0


def test_findings_are_reported_in_canonical_order(tmp_path):
    root = make_tree(tmp_path, {
        "core/b.py": "def f(x=[]):\n    return x\n",
        "core/a.py": "def g(y={}):\n    return y\n",
    })
    result = run_lint(root=root, rules=["mutable-default-args"],
                      use_baseline=False)
    assert [f.path for f in result.findings] == [
        "repro/core/a.py", "repro/core/b.py",
    ]


# ----------------------------------------------------------- the real repo


def test_repo_is_clean_or_fully_baselined():
    result = run_lint()
    assert result.clean, "\n".join(
        f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in result.findings
    )


def test_committed_baseline_is_empty():
    """The tree passes every rule outright; keep it that way."""
    baseline = json.loads((REPO / "lint-baseline.json").read_text())
    assert baseline["version"] == 2
    assert baseline["findings"] == {}


# ---------------------------------------------------------------------- CLI


def test_cli_lint_clean_exit(capsys):
    from repro.cli import main
    assert main(["lint", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["clean"] is True


def test_cli_lint_list(capsys):
    from repro.cli import main
    assert main(["lint", "--list"]) == 0
    out = capsys.readouterr().out
    for rule_id in EXPECTED_RULES:
        assert rule_id in out


def test_cli_lint_fails_on_findings_and_update_baseline(tmp_path, capsys):
    from repro.cli import main
    root = make_tree(tmp_path, {
        "core/x.py": """
            def f(x=[]):
                return x
        """,
    })
    baseline = tmp_path / "baseline.json"
    args = ["lint", "--root", str(root), "--baseline", str(baseline),
            "--rules", "mutable-default-args"]
    assert main(args) == 1
    assert "mutable-default-args" in capsys.readouterr().out
    assert main(args + ["--update-baseline"]) == 0
    assert baseline.exists()
    assert main(args) == 0
