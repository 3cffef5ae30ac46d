"""Golden-fixture tests for the determinism & isolation lint suite.

Each rule gets at least one fixture that MUST fire (true positive) and one
that MUST stay silent (true negative), so the rule pack cannot silently go
blind.  The exit-code contract and the scope paths are covered against
``tools/lint.py`` itself, and :class:`TestRepoIsClean` holds ``src/repro``
to zero findings outside ``tools.lint.ALLOWED_FINDINGS``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import LintEngine, default_rules

import tools.lint as lint_cli
import tools.mutants as mutants


@pytest.fixture()
def engine():
    return LintEngine(default_rules())


def rules_of(findings):
    return [finding.rule for finding in findings]


def lint(engine, source, scope="core/module.py"):
    return engine.lint_source(source, path=scope, scope_path=scope)


# --------------------------------------------------------------------- rules
class TestNoUnorderedIteration:
    POSITIVE = (
        "def schedule_all(pending: set):\n"
        "    for item in pending:\n"
        "        schedule(item)\n"
    )
    NEGATIVE = (
        "def schedule_all(pending: set):\n"
        "    for item in sorted(pending):\n"
        "        schedule(item)\n"
    )

    def test_positive_for_loop(self, engine):
        findings = lint(engine, self.POSITIVE, scope="broadcast/endpoint.py")
        assert rules_of(findings) == ["no-unordered-iteration"]
        assert findings[0].line == 2

    def test_negative_sorted(self, engine):
        assert lint(engine, self.NEGATIVE, scope="broadcast/endpoint.py") == []

    def test_positive_inferred_local_and_attribute(self, engine):
        source = (
            "class Endpoint:\n"
            "    def __init__(self):\n"
            "        self._pending = set()\n"
            "    def flush(self):\n"
            "        return [p for p in self._pending]\n"
        )
        findings = lint(engine, source, scope="core/endpoint.py")
        assert rules_of(findings) == ["no-unordered-iteration"]

    def test_positive_list_materialisation(self, engine):
        source = "ids = {1, 2, 3}\nordered = list(ids)\n"
        assert rules_of(lint(engine, source, scope="simulation/x.py")) == [
            "no-unordered-iteration"
        ]

    def test_negative_membership_and_aggregates(self, engine):
        source = (
            "ids = {1, 2, 3}\n"
            "present = 2 in ids\n"
            "count = len(ids)\n"
            "top = max(ids)\n"
        )
        assert lint(engine, source, scope="core/x.py") == []

    def test_negative_outside_scoped_packages(self, engine):
        findings = engine.lint_source(
            self.POSITIVE, path="metrics/x.py", scope_path="metrics/x.py"
        )
        assert findings == []

    def test_positive_workloads_in_scope(self, engine):
        # Workload generation feeds the protocol: a hash-ordered span of
        # conflict classes changes which histories a seed produces.
        findings = lint(engine, self.POSITIVE, scope="workloads/x.py")
        assert rules_of(findings) == ["no-unordered-iteration"]

    def test_negative_dict_iteration_is_order_documented(self, engine):
        source = "def f(d: dict):\n    for k in d:\n        use(k)\n"
        assert lint(engine, source, scope="core/x.py") == []


class TestNoCrossSiteOracle:
    POSITIVE = (
        "class Scheduler:\n"
        "    def steal_state(self, peer):\n"
        "        return peer.commit_frontier\n"
    )
    NEGATIVE = (
        "class Replica:\n"
        "    def catch_up_from(self, donor):\n"
        "        return donor.commit_frontier\n"
    )

    def test_positive_peer_dereference(self, engine):
        findings = lint(engine, self.POSITIVE)
        assert rules_of(findings) == ["no-cross-site-oracle"]
        assert "peer.commit_frontier" in findings[0].message

    def test_negative_declared_donor_path(self, engine):
        assert lint(engine, self.NEGATIVE) == []

    def test_positive_registry_private_reach(self, engine):
        source = (
            "def poke(cluster, site):\n"
            "    return cluster.replicas[site]._redo_log\n"
        )
        assert rules_of(lint(engine, source, scope="failure/x.py")) == [
            "no-cross-site-oracle"
        ]

    def test_positive_crash_manager_ground_truth(self, engine):
        source = (
            "class Governor:\n"
            "    def elect(self, site):\n"
            "        return self.crash_manager.is_up(site)\n"
        )
        findings = lint(engine, source, scope="failure/x.py")
        assert rules_of(findings) == ["no-cross-site-oracle"]
        assert "ground truth" in findings[0].message

    def test_negative_network_layer_is_exempt(self, engine):
        findings = engine.lint_source(
            self.POSITIVE, path="network/x.py", scope_path="network/x.py"
        )
        assert findings == []

    @pytest.mark.parametrize("receiver", ["self.transport", "transport", "self._net"])
    def test_positive_transport_liveness_on_any_receiver(self, engine, receiver):
        source = (
            "class Endpoint:\n"
            "    def release(self, transport, site):\n"
            f"        return {receiver}.is_site_up(site)\n"
        )
        findings = lint(engine, source, scope="broadcast/x.py")
        assert rules_of(findings) == ["no-cross-site-oracle"]
        assert "ground-truth liveness" in findings[0].message

    def test_negative_transport_liveness_in_allowed_module(self, engine):
        source = "def alive(transport, site):\n    return transport.is_site_up(site)\n"
        assert lint(engine, source, scope="chaos/x.py") == []


class TestKernelHotPathAllocation:
    POSITIVE = (
        "def run(queue):\n"
        "    # repro: hot-path\n"
        "    while queue:\n"
        "        event = queue.pop()\n"
        "        label = f'{event}'\n"
    )
    NEGATIVE = (
        "def run(queue):\n"
        "    # repro: hot-path\n"
        "    while queue:\n"
        "        event = queue.pop()\n"
        "        event.callback()\n"
    )

    def test_positive_fstring_in_marked_loop(self, engine):
        findings = lint(engine, self.POSITIVE, scope="simulation/kernel.py")
        assert rules_of(findings) == ["kernel-hot-path-allocation"]
        assert "f-string" in findings[0].message

    def test_negative_lean_loop(self, engine):
        assert lint(engine, self.NEGATIVE, scope="simulation/kernel.py") == []

    def test_positive_comprehension_and_dict_call(self, engine):
        source = (
            "def run(items):\n"
            "    # repro: hot-path\n"
            "    for i in items:\n"
            "        a = [x for x in i]\n"
            "        b = dict()\n"
        )
        findings = lint(engine, source, scope="simulation/x.py")
        assert rules_of(findings) == ["kernel-hot-path-allocation"] * 2

    def test_unmarked_loop_is_not_checked(self, engine):
        source = (
            "def run(items):\n"
            "    for i in items:\n"
            "        a = [x for x in i]\n"
        )
        assert lint(engine, source, scope="simulation/x.py") == []

    def test_marker_without_loop_is_reported(self, engine):
        source = "# repro: hot-path\nx = 1\n"
        findings = lint(engine, source, scope="simulation/x.py")
        assert rules_of(findings) == ["kernel-hot-path-allocation"]
        assert "no loop" in findings[0].message


# ----------------------------------------------------------- no inline waiver
@pytest.mark.parametrize(
    "loop",
    [
        "    for item in pending:  # repro: allow[no-unordered-iteration] -- order-free\n",
        "    # repro: allow[no-unordered-iteration] -- order-free\n    for item in pending:\n",
        "    for item in pending:  # repro: allow no-unordered-iteration\n",
    ],
    ids=["trailing", "line-above", "malformed"],
)
def test_a_comment_silences_nothing(engine, loop):
    source = "def schedule_all(pending: set):\n" + loop + "        schedule(item)\n"
    assert rules_of(lint(engine, source, scope="broadcast/endpoint.py")) == [
        "no-unordered-iteration"
    ]


# ------------------------------------------------------------------ CLI layer
def write_tree(root: Path, files):
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")


CLEAN_FILE = "def now(kernel):\n    return kernel.now()\n"
#: Dirty in every scope: the hot-path rule is not scoped by package.
DIRTY_FILE = "def run(queue):\n    # repro: hot-path\n    while queue:\n        label = f'{queue.pop()}'\n"


class TestLintCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/clean.py": CLEAN_FILE})
        assert lint_cli.main([str(tmp_path / "pkg")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/dirty.py": DIRTY_FILE})
        assert lint_cli.main([str(tmp_path / "pkg")]) == 1
        out = capsys.readouterr().out
        assert "kernel-hot-path-allocation" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert lint_cli.main([str(tmp_path / "absent")]) == 2

    def test_exit_two_on_syntax_error(self, tmp_path, capsys):
        write_tree(tmp_path, {"pkg/broken.py": "def f(:\n"})
        assert lint_cli.main([str(tmp_path / "pkg")]) == 2
        assert "syntax error" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag",
        [
            "--record-db",
            "--record-name",
            "--baseline",
            "--write-baseline",
            "--format",
            "--report-only",
            "--list-rules",
        ],
    )
    def test_removed_options_are_rejected(self, tmp_path, capsys, flag):
        write_tree(tmp_path, {"pkg/clean.py": CLEAN_FILE})
        with pytest.raises(SystemExit) as excinfo:
            lint_cli.main([str(tmp_path / "pkg"), flag, "value"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_allowed_findings_are_left_out(self, tmp_path, capsys):
        allowed_line = "if not self.transport.is_site_up(self.site_id):"
        source = (
            "class Endpoint:\n"
            "    def probe(self):\n"
            f"        {allowed_line}\n"
            "            return\n"
            "        return self.transport.is_site_up(self.site_id)\n"
        )
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/broadcast/__init__.py": "",
                "pkg/broadcast/optimistic.py": source,
            },
        )
        assert lint_cli.main([str(tmp_path / "pkg" / "broadcast")]) == 1
        out = capsys.readouterr().out
        assert out.count("[no-cross-site-oracle]") == 1 and "optimistic.py:5:" in out
        assert "1 finding(s) in 2 file(s) (1 allowed)" in out

    def test_scope_paths_start_at_the_package_root(self, tmp_path, engine):
        # The rules scope by package path: pointing the lint at a subpackage
        # or a file must not turn `core/cluster.py` into `cluster.py`.
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/core/__init__.py": "",
                "pkg/core/x.py": DIRTY_FILE,
                "loose/y.py": DIRTY_FILE,
            },
        )
        for target in ("pkg", "pkg/core", "pkg/core/x.py"):
            (finding,) = engine.lint_paths([tmp_path / target]).findings
            assert finding.scope_path == "core/x.py"
        (finding,) = engine.lint_paths([tmp_path / "loose"]).findings
        assert finding.scope_path == "y.py"


# -------------------------------------------------- the repo's own invariants
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"


def allowed_findings_problems(findings, allowed):
    """Findings outside ``allowed``, and entries of it that match none."""
    keys = [lint_cli.allowance(finding) for finding in findings]
    problems = [finding.render() for finding, key in zip(findings, keys) if key not in allowed]
    problems += [f"allowed {key} matches no finding" for key in sorted(set(allowed) - set(keys))]
    return problems


@pytest.fixture(scope="module")
def tree_report():
    return LintEngine(default_rules()).lint_paths([SRC_REPRO], display_base=REPO_ROOT)


class TestRepoIsClean:
    def test_src_repro_lints_clean(self, tree_report):
        assert tree_report.errors == []
        problems = allowed_findings_problems(tree_report.findings, lint_cli.ALLOWED_FINDINGS)
        assert problems == [], "\n".join(problems)

    def test_every_allowed_finding_carries_a_reason(self):
        assert all(reason.strip() for reason in lint_cli.ALLOWED_FINDINGS.values())

    def test_a_stale_allowed_finding_fails(self, tmp_path, engine):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/dirty.py": DIRTY_FILE})
        findings = engine.lint_paths([tmp_path / "pkg"]).findings
        live = ("dirty.py", "kernel-hot-path-allocation", "label = f'{queue.pop()}'")
        stale = ("dirty.py", "kernel-hot-path-allocation", "label = f'{queue[0]}'")
        assert allowed_findings_problems(findings, {live: "a reason"}) == []
        assert allowed_findings_problems(findings, {live: "a reason", stale: "gone"}) == [
            f"allowed {stale} matches no finding"
        ]
        assert allowed_findings_problems(findings, {}) == [findings[0].render()]

    def test_linting_part_of_the_tree_finds_what_the_tree_lint_finds(self, tree_report):
        engine = LintEngine(default_rules())
        targets = [path for path in sorted(SRC_REPRO.iterdir()) if (path / "__init__.py").is_file()]
        targets += sorted(SRC_REPRO.rglob("*.py"))
        for target in targets:
            part = engine.lint_paths([target], display_base=REPO_ROOT)
            prefix = target.relative_to(SRC_REPRO).as_posix()
            expected = [
                finding
                for finding in tree_report.findings
                if finding.scope_path == prefix or finding.scope_path.startswith(prefix + "/")
            ]
            assert part.findings == expected, target
            assert [f.scope_path for f in part.findings] == [f.scope_path for f in expected]

    def test_module_cli_entrypoint(self):
        completed = subprocess.run(
            [sys.executable, "-m", "tools.lint", "src/repro"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert completed.stdout.startswith("0 finding(s) in ")


# -------------------------------------------- the planted defects that decide
KEPT_RULES = sorted(rule.name for rule in default_rules())


class TestPlantedDefects:
    """``tools/mutants.py``'s table stays applicable, and it is why each rule stays."""

    @pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
    def test_each_defect_plants_in_exactly_one_place(self, mutant):
        source = (SRC_REPRO / mutant.path).read_text(encoding="utf-8")
        assert mutants.plant(mutant, source) != source

    def test_each_kept_rule_has_a_defect_that_tier1_misses(self):
        survivors = {
            mutant.breaks for mutant in mutants.MUTANTS if mutant.expected.startswith("survives")
        }
        assert sorted(survivors) == KEPT_RULES

    @pytest.mark.parametrize(
        "mutant",
        [mutant for mutant in mutants.MUTANTS if mutant.breaks in KEPT_RULES],
        ids=lambda mutant: mutant.name,
    )
    def test_the_kept_rule_finds_its_planted_defect(self, engine, mutant):
        source = (SRC_REPRO / mutant.path).read_text(encoding="utf-8")
        before = {
            (finding.rule, finding.source)
            for finding in lint(engine, source, scope=mutant.path)
        }
        planted = lint(engine, mutants.plant(mutant, source), scope=mutant.path)
        assert [
            finding.rule for finding in planted if (finding.rule, finding.source) not in before
        ] == [mutant.breaks]
