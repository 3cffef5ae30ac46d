"""``tools/mutants.py``: its table's shape and how it judges one run.

These tests read only the table, never the source it plants into, so the
tool's own tier-1 runs (which leave out the structural files, among them
``tests/test_analysis_lint.py``'s check that each source text occurs once)
can include them.  No test here starts pytest: ``run_tier1``'s subprocess is
replaced by a stub that records what it was asked to run.
"""

import subprocess
from pathlib import Path

import pytest

import tools.mutants as mutants

#: The rules deleted because tier-1 kills their planted defects.
DELETED_RULES = ("tracer-guard", "seeded-randomness-only", "no-wallclock")


def package_of(mutant):
    return mutant.path.split("/")[0]


# --------------------------------------------------------------------- table
def test_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("rule", DELETED_RULES)
def test_each_deleted_rule_is_killed_in_two_packages(rule):
    planted = [mutant for mutant in mutants.MUTANTS if mutant.breaks == rule]
    assert len(planted) >= 2
    assert all(mutant.expected == "killed" for mutant in planted)
    assert len({package_of(mutant) for mutant in planted}) >= 2


@pytest.mark.parametrize(
    "mutant",
    [mutant for mutant in mutants.MUTANTS if mutant.expected != "killed"],
    ids=lambda mutant: mutant.name,
)
def test_a_tier1_survivor_states_why(mutant):
    verdict, _, reason = mutant.expected.partition(":")
    assert verdict in ("survives", "equivalent")
    assert reason.strip()


# ------------------------------------------------------------------- plant
TOY = mutants.Mutant("toy", "core/toy.py", "x = 1\n", "x = 2\n", "a guard", "killed")


def test_plant_replaces_the_source_text():
    assert mutants.plant(TOY, "a = 0\nx = 1\n") == "a = 0\nx = 2\n"


@pytest.mark.parametrize("text", ["a = 0\n", "x = 1\nx = 1\n"], ids=["missing", "repeated"])
def test_plant_refuses_text_that_does_not_hold_the_source_once(text):
    with pytest.raises(ValueError, match="toy: core/toy.py holds the source text"):
        mutants.plant(TOY, text)


# -------------------------------------------------------------- as_expected
@pytest.mark.parametrize(
    ("expected", "outcome", "verdict"),
    [
        ("killed", "killed by tests/test_x.py::test_y", True),
        ("killed", "survived", False),
        ("killed", "error: pytest exited 4\n", False),
        ("survives: rule kept", "survived", True),
        ("survives: rule kept", "killed by tests/test_x.py::test_y", False),
        ("equivalent: one id per position", "survived", True),
    ],
)
def test_as_expected(expected, outcome, verdict):
    assert mutants.as_expected(TOY._replace(expected=expected), outcome) is verdict


# ---------------------------------------------------------------- run_tier1
@pytest.fixture()
def toy_checkout(tmp_path, monkeypatch):
    """A checkout holding only ``src/repro/core/toy.py``, and a recording pytest stub."""
    root = tmp_path / "repo"
    target = root / "src" / "repro" / "core" / "toy.py"
    target.parent.mkdir(parents=True)
    target.write_text("a = 0\nx = 1\n", encoding="utf-8")
    monkeypatch.setattr(mutants, "ROOT", root)
    calls = []

    def stub(returncode, stdout):
        def run(command, cwd, env, **kwargs):
            planted = Path(cwd) / "src" / "repro" / "core" / "toy.py"
            calls.append((command, Path(cwd), env, planted.read_text(encoding="utf-8")))
            return subprocess.CompletedProcess(command, returncode, stdout, "")

        monkeypatch.setattr(mutants.subprocess, "run", run)
        return calls

    return target, stub


def test_run_tier1_plants_in_a_copy_and_leaves_out_the_structural_files(toy_checkout):
    target, stub = toy_checkout
    calls = stub(0, "5 passed\n")
    assert mutants.run_tier1(TOY) == "survived"
    [(command, cwd, env, planted)] = calls
    assert planted == "a = 0\nx = 2\n"
    assert target.read_text(encoding="utf-8") == "a = 0\nx = 1\n"
    assert cwd != mutants.ROOT and not cwd.exists()
    assert command[1:] == [
        "-m", "pytest", "-x", "-q",
        "-m", "not chaos and not recovery and not endurance",
        "-p", "no:cacheprovider",
    ] + [f"--ignore={path}" for path in mutants.STRUCTURAL]
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"] == str(cwd / "src")


def test_run_tier1_names_the_killing_test(toy_checkout):
    _, stub = toy_checkout
    stub(1, "..F\nFAILED tests/test_x.py::test_y - AssertionError\n1 failed\n")
    assert mutants.run_tier1(TOY) == "killed by tests/test_x.py::test_y"


def test_run_tier1_reports_a_run_that_names_no_failure_as_an_error(toy_checkout):
    _, stub = toy_checkout
    stub(4, "no tests ran\n")
    assert mutants.run_tier1(TOY) == "error: pytest exited 4\nno tests ran\n"


# --------------------------------------------------------------------- main
@pytest.fixture()
def outcomes(monkeypatch):
    """Replace ``run_tier1`` by a table of outcomes; returns the names run."""
    ran = []

    def install(by_name):
        def run(mutant):
            ran.append(mutant.name)
            return by_name[mutant.name]

        monkeypatch.setattr(mutants, "run_tier1", run)
        return ran

    return install


def as_the_table_expects(mutant):
    return "killed by tests/test_x.py::test_y" if mutant.expected == "killed" else "survived"


def test_main_runs_every_entry_and_exits_0_when_each_is_as_expected(outcomes, capsys):
    ran = outcomes({mutant.name: as_the_table_expects(mutant) for mutant in mutants.MUTANTS})
    assert mutants.main() == 0
    assert ran == [mutant.name for mutant in mutants.MUTANTS]
    count = len(mutants.MUTANTS)
    assert capsys.readouterr().out.endswith(f"{count} of {count} as expected\n")


def test_main_exits_1_when_an_outcome_differs_from_the_table(outcomes, capsys):
    by_name = {mutant.name: as_the_table_expects(mutant) for mutant in mutants.MUTANTS}
    by_name["unguarded-tracer-replica"] = "survived"
    outcomes(by_name)
    assert mutants.main() == 1
    out = capsys.readouterr().out
    assert "UNEXPECTED unguarded-tracer-replica [tracer-guard] survived" in out
    count = len(mutants.MUTANTS)
    assert out.endswith(f"{count - 1} of {count} as expected\n")
