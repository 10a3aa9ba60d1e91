"""Every name `chillwave/__init__.py` exports has a user besides the tests.

A name passes when code reads it in a `src/` module, the one it comes
from included, or in `perfbench/*.py`: a public function that only tests
call fails here, whatever README.md says of it.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chillwave"


def names_read(path: Path) -> set[str]:
    """Names, attributes and imported names in a module's code (not in its
    strings or comments)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_user():
    exports = set()
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exports.update(alias.name for alias in node.names)
    assert len(exports) >= 30
    code = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    read = set().union(*map(names_read, code + list((ROOT / "perfbench").glob("*.py"))))
    assert sorted(exports - read) == []


def test_no_module_imports_another_modules_private_name():
    # a name with a leading underscore belongs to its module: a function
    # that two modules need lives, public, beside the code it composes
    imported = set()  # (importing module, source module, private name)
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update((path.stem, node.module, alias.name) for alias in node.names
                                if alias.name.startswith("_") and not alias.name.endswith("__"))
    assert imported == set()


def test_only_potential_reads_the_truncation_spec():
    # PotentialSpec and lipschitz_bound stay for perfbench alone: every
    # step and energy reads the constants potential.P and potential.L
    spec_names = {"PotentialSpec", "lipschitz_bound"}
    readers = {
        path.name: sorted(names_read(path) & spec_names)
        for path in PACKAGE.glob("*.py") if path.name != "potential.py"
    }
    assert {name: read for name, read in readers.items() if read} == {}


def test_only_the_verdict_and_the_run_read_the_verdict_threshold():
    # the instability rule is stated once per reader: stability_verdict
    # judges a trace by it and run_simulation's until_unstable stops on
    # it; a sweep reads its log rows off the verdict, not the threshold
    reads = set()  # (module, the top-level def or class holding the read)
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name == "VERDICT_THRESHOLD":
                    reads.add((path.stem, getattr(stmt, "name", None)))
    assert {module for module, _ in reads} == {"diagnostics", "harness"}
    assert {scope for module, scope in reads if module == "harness"} == {"run_simulation"}


def test_only_the_run_names_every_stop_reason():
    # run_simulation sets a trace's stop_reason at its three exits; the
    # trace reads "blow_up"; summary.json and the sweep log copy the
    # trace's reason and name none
    reasons = {"completed", "energy_increase", "blow_up"}
    named = set()  # (module, the top-level def or class, the reason)
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Constant) and node.value in reasons:
                    named.add((path.stem, getattr(stmt, "name", None), node.value))
    assert named == {("harness", "run_simulation", reason) for reason in reasons} | {
        ("diagnostics", "EnergyTrace", "blow_up")}


def test_only_snapshot_path_names_the_snapshot_files():
    # the writer process names each snapshot file off snapshot_path, which
    # no other module reads: final_field.csv is formatted, not copied
    pattern = re.compile(r"snapshot_(%06d|\{[^}]*:06d\})\.csv")
    named = set()  # (module, the top-level def or class writing the pattern)
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.JoinedStr, ast.Constant)) and pattern.search(
                        ast.unparse(node)):
                    named.add((path.stem, getattr(stmt, "name", None)))
    assert named == {("_snapshots", "snapshot_path")}
    readers = {path.stem for path in PACKAGE.glob("*.py") if "snapshot_path" in names_read(path)}
    assert readers == {"_snapshots"}


def test_every_raise_is_one_of_three_failure_kinds():
    # bad input is a ValueError (the snapshot writer's failure an OSError),
    # a numerical procedure behind the basis that misses its contract a
    # SolveFailed, a blow-up a NonFinite; a bare re-raise names no class
    kinds = {"ValueError", "SolveFailed", "NonFinite", "OSError"}
    raised = set()  # (module, line, the class raised)
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add((path.stem, node.lineno, ast.unparse(exc)))
    assert {site for site in raised if site[2] not in kinds} == set()
    assert {site[2] for site in raised} == kinds
    # cli.main turns every kind into its one-line error, and catches
    # nothing else: a missing config key is a ValueError, no KeyError
    main = next(node for node in ast.parse((PACKAGE / "cli.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught.update(ast.unparse(t) for t in types)
    assert caught == {"ChillwaveError", "ValueError", "OSError", "MemoryError"}
