"""Tests for the deep (flow-sensitive, whole-program) analysis layer.

Covers the three deep engines — determinism taint propagation,
shared-state race detection, and API-contract checking — against the
committed fixture packages under ``tests/fixtures/lint/`` (one seeded
violation per rule, each with a clean twin), plus SARIF rendering, the
rule-scoped baseline, and the reason-required pragma policy for
whole-program suppressions.
"""

import json
import textwrap
from pathlib import Path

from repro.lint import (
    Baseline,
    render_sarif,
    run_lint,
    rule_ids,
    select_rules,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "lint"

DEEP_RULES = {
    "taint-determinism", "worker-shared-state",
    "pool-pickle-safety", "api-contract",
}


def make_tree(tmp_path, files):
    """Write a synthetic ``repro`` package tree and return its root."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def fixture_findings(case, rule):
    """Lint one committed fixture package with a single deep rule."""
    result = run_lint(root=FIXTURES / case / "repro", rules=[rule],
                      use_baseline=False)
    return result.findings


# ------------------------------------------------------------ rule selection


def test_deep_rules_are_registered():
    assert DEEP_RULES <= set(rule_ids())


def test_basic_mode_excludes_deep_rules():
    basic = {r.id for r in select_rules(None, analyze="basic")}
    deep = {r.id for r in select_rules(None, analyze="deep")}
    assert basic & DEEP_RULES == set()
    assert DEEP_RULES <= deep
    assert basic <= deep


def test_explicit_rule_list_overrides_the_mode():
    picked = {r.id for r in select_rules(["taint-determinism"],
                                         analyze="basic")}
    assert picked == {"taint-determinism"}


# -------------------------------------------------------- taint-determinism


def test_transitive_wall_clock_taint_fires_exactly_once():
    findings = fixture_findings("taint", "taint-determinism")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "repro/core/bad_report.py"
    assert "time.time" in finding.message
    assert "json.dumps" in finding.message
    # The reported flow crosses both intermediate hops.
    assert "repro.core.mid.helper" in finding.message
    assert "repro.core.clock.stamp" in finding.message


def test_taint_clean_twin_stays_clean():
    findings = fixture_findings("taint", "taint-determinism")
    assert all(f.path != "repro/core/good_report.py" for f in findings)


def test_taint_through_pricing_sink(tmp_path):
    root = make_tree(tmp_path, {
        "core/seedgen.py": """
            import os

            def pick_seed():
                return int(os.environ.get("SEED", "0"))
        """,
        "core/study.py": """
            from repro.core.seedgen import pick_seed

            def run(pricer):
                return pricer.price(pick_seed())
        """,
    })
    result = run_lint(root=root, rules=["taint-determinism"],
                      use_baseline=False)
    assert len(result.findings) == 1
    assert result.findings[0].path == "repro/core/study.py"
    assert "pricing" in result.findings[0].message


# ------------------------------------------------------- worker-shared-state


def test_worker_side_global_mutation_fires_exactly_once():
    findings = fixture_findings("races", "worker-shared-state")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "repro/engine/bad_pool.py"
    assert "_RESULTS" in finding.message
    assert "process-pool" in finding.message


def test_races_clean_twin_stays_clean():
    findings = fixture_findings("races", "worker-shared-state")
    assert all(f.path != "repro/engine/good_pool.py" for f in findings)


def test_thread_domain_global_write_flagged(tmp_path):
    root = make_tree(tmp_path, {
        "service/hub.py": """
            import threading

            _SEEN = []

            def _drain(q):
                _SEEN.append(q)

            def start(q):
                t = threading.Thread(target=_drain, args=(q,))
                t.start()
                return t
        """,
    })
    result = run_lint(root=root, rules=["worker-shared-state"],
                      use_baseline=False)
    assert len(result.findings) == 1
    assert "_SEEN" in result.findings[0].message


# -------------------------------------------------------- pool-pickle-safety


def test_unpicklable_mapped_callable_fires_exactly_once():
    findings = fixture_findings("pickle", "pool-pickle-safety")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "repro/engine/bad_submit.py"
    assert "pickled" in finding.message


def test_pickle_clean_twin_stays_clean():
    findings = fixture_findings("pickle", "pool-pickle-safety")
    assert all(f.path != "repro/engine/good_submit.py" for f in findings)


# -------------------------------------------------------------- api-contract


def test_all_drift_fires_exactly_once():
    findings = fixture_findings("contracts", "api-contract")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "repro/core/bad_api.py"
    assert "ghost" in finding.message


def test_contract_clean_twin_stays_clean():
    findings = fixture_findings("contracts", "api-contract")
    assert all(f.path != "repro/core/good_api.py" for f in findings)


def test_facade_all_is_drift_checked(tmp_path):
    """The pinned facade binds every export; an unbound one is flagged."""
    source = (REPO / "src" / "repro" / "api.py").read_text()
    assert source.count("\n__all__ = [\n") == 1
    root = make_tree(tmp_path, {
        "api.py": source.replace("\n__all__ = [\n",
                                 '\n__all__ = [\n    "ghost",\n'),
    })
    result = run_lint(root=root, rules=["api-contract"], use_baseline=False)
    assert [f.message for f in result.findings] == [
        "__all__ exports 'ghost' but the module never binds it "
        "(export drift)"
    ]


# --------------------------------------------------------------- suppression


def test_deep_suppression_requires_a_reason(tmp_path):
    root = make_tree(tmp_path, {
        "core/bad_api.py": """
            \"\"\"Fixture.\"\"\"

            # repro: lint-ignore[api-contract]
            __all__ = ["ghost"]
        """,
    })
    result = run_lint(root=root, rules=["api-contract", "pragma-hygiene"],
                      use_baseline=False)
    assert len(result.findings) == 1
    assert result.findings[0].rule == "pragma-hygiene"
    assert "requires a documented reason" in result.findings[0].message


def test_deep_suppression_with_reason_is_honored(tmp_path):
    root = make_tree(tmp_path, {
        "core/bad_api.py": """
            \"\"\"Fixture.\"\"\"

            # repro: lint-ignore[api-contract] -- name is injected by the plugin loader at import time
            __all__ = ["ghost"]
        """,
    })
    result = run_lint(root=root, rules=["api-contract", "pragma-hygiene"],
                      use_baseline=False)
    assert result.findings == []
    assert result.suppressed == 1


# --------------------------------------------------------------------- SARIF


def test_sarif_report_shape():
    result = run_lint(root=FIXTURES / "taint" / "repro",
                      rules=["taint-determinism"], use_baseline=False)
    doc = json.loads(render_sarif(result))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert rules == {"taint-determinism"}
    (res,) = run["results"]
    assert res["ruleId"] == "taint-determinism"
    uri = res["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
    assert uri == "src/repro/core/bad_report.py"
    assert "reproLintFingerprint/v2" in res["partialFingerprints"]


def test_sarif_clean_run_has_no_results():
    result = run_lint(root=FIXTURES / "contracts" / "repro",
                      rules=["pool-pickle-safety"], use_baseline=False)
    doc = json.loads(render_sarif(result))
    assert doc["runs"][0]["results"] == []


# ------------------------------------------------------- baseline (deep mode)


def test_deep_findings_baseline_and_prune(tmp_path):
    root = FIXTURES / "races" / "repro"
    baseline_path = tmp_path / "baseline.json"
    first = run_lint(root=root, rules=["worker-shared-state"],
                     use_baseline=False)
    assert len(first.all_findings) == 1
    Baseline.from_findings(first.all_findings).save(baseline_path)

    absorbed = run_lint(root=root, rules=["worker-shared-state"],
                        baseline_path=baseline_path)
    assert absorbed.clean
    assert absorbed.baselined == 1

    # Pruning against a clean rule drops the now-stale entry.
    clean = run_lint(root=root, rules=["pool-pickle-safety"],
                     use_baseline=False)
    baseline = Baseline.load(baseline_path)
    pruned, dropped = baseline.prune(clean.all_findings)
    assert len(dropped) == 1
    assert pruned.counts == {}


def test_baseline_keeps_entries_of_rules_that_did_not_run(tmp_path, capsys):
    """A run judges only the baseline entries of the rules it ran.

    Basic mode must neither report a deep rule's entry stale nor prune
    it, and a ``--rules`` update rewrites only that rule's entries.
    """
    from repro.cli import main
    contracts = FIXTURES / "contracts" / "repro" / "core" / "bad_api.py"
    root = make_tree(tmp_path, {
        "core/bad_api.py": contracts.read_text(),
        "core/x.py": """
            def f(x=[]):
                return x
        """,
    })
    baseline = tmp_path / "baseline.json"
    args = ["lint", "--root", str(root), "--baseline", str(baseline)]

    def entries():
        return json.loads(baseline.read_text())["findings"]

    # An unsupported old file is regenerated, not merged.
    baseline.write_text('{"version": 1, "findings": {"layering::x": 1}}')
    assert main(args + ["--analyze", "deep", "--update-baseline"]) == 0
    grandfathered = entries()
    assert sorted(key.split("::")[0] for key in grandfathered) == [
        "api-contract", "mutable-default-args",
    ]
    capsys.readouterr()

    assert main(args) == 0
    assert "stale baseline entry" not in capsys.readouterr().out
    assert main(args + ["--prune-baseline"]) == 0
    assert entries() == grandfathered
    assert main(args + ["--rules", "mutable-default-args",
                        "--update-baseline"]) == 0
    assert entries() == grandfathered
    assert main(args + ["--analyze", "deep"]) == 0


# ------------------------------------------------------------ the real repo


def test_repo_is_deep_clean():
    """`repro lint --analyze deep` passes on the full tree."""
    result = run_lint(analyze="deep")
    assert result.clean, "\n".join(
        f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in result.findings
    )


# ---------------------------------------------------------------------- CLI


def test_cli_deep_flags(capsys):
    from repro.cli import main
    root = FIXTURES / "contracts" / "repro"
    args = ["lint", "--root", str(root), "--rules", "api-contract",
            "--analyze", "deep"]
    assert main(args) == 1
    assert "api-contract" in capsys.readouterr().out


def test_cli_sarif_output(capsys):
    from repro.cli import main
    root = FIXTURES / "pickle" / "repro"
    args = ["lint", "--root", str(root), "--rules", "pool-pickle-safety",
            "--format", "sarif"]
    assert main(args) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["results"]


def test_cli_prune_baseline(tmp_path, capsys):
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
    assert main(args + ["--update-baseline"]) == 0
    capsys.readouterr()

    # Fix the violation; prune must empty the baseline.
    (root / "core" / "x.py").write_text('"""Clean now."""\n')
    assert main(args + ["--prune-baseline"]) == 0
    assert "1 stale entry pruned" in capsys.readouterr().out
    assert json.loads(baseline.read_text())["findings"] == {}
