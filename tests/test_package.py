import argparse
import ast
import re
import sys
from pathlib import Path

import ergodec
from ergodec import cli

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ergodec").glob("*.py"))


def test_library_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module binds by import is read somewhere in it; the
    package's __init__ imports only to re-export."""
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []


def test_every_export_resolves():
    assert [name for name in ergodec.__all__ if not hasattr(ergodec, name)] == []


def test_readme_matches_the_command_line():
    """The schema version README states, and its synopsis: one line per
    subcommand with that subcommand's own options, plus the common ones."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"`schema_version`,\s+currently (\d+)\.", readme) \
        == [str(cli.SCHEMA_VERSION)]
    section = readme.split("## Command line", 1)[1]
    synopsis = section.split("```", 2)[1]
    common = set(re.findall(r"--[a-z-]+", section.split("Common flags:", 1)[1].split("\n\n")[0]))
    documented = {line.split()[1]: set(re.findall(r"--[a-z-]+", line)) | common
                  for line in synopsis.splitlines() if line.startswith("ergodec ")}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    actual = {name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
              for name, sub in subparsers.choices.items()}
    assert documented == actual


def _readme_table(readme: str, heading: str) -> list:
    """The cells of the first table under heading, header rows dropped."""
    section = readme.split(heading, 1)[1].lstrip("\n").split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines()[2:]]


def _keys(cell: str) -> set:
    """The data keys a table cell names: its backticked identifiers."""
    return set(re.findall(r"`([a-z_]+)`", cell))


def test_readme_certificate_tables_list_the_emitted_keys():
    """Each certificate-table row names exactly the data keys the engine
    puts into that certificate."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    emitted = {}
    for generators in ([[[0, 1], [1, 1]]], [[[0, -1], [1, 0]]]):
        action = ergodec.toral_action(generators)
        for scope, verdict in [("element", ergodec.is_ergodic_element(action, (1,))),
                               ("element", ergodec.is_distal_element(action, (1,))),
                               ("group", ergodec.is_ergodic_group(action)),
                               ("group", ergodec.is_distal_group(action))]:
            emitted[f"{verdict.kind} {scope}"] = (verdict.certificate,
                                                        set(verdict.data))
    documented = {verdict: (kind.strip("`"), _keys(data))
                  for verdict, kind, data in _readme_table(
                      readme, "### Toral and solenoid certificates")}
    assert documented == emitted

    # x + 1 over F_2 in one variable, and 1 + u1 + u2 over F_2 in two
    terms = {1: [((0,), 1), ((1,), 1)], 2: [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)]}
    one, two = (ergodec.laurent_cyclic_action(2, n, ergodec.LaurentPoly.from_terms(2, n, t))
                for n, t in terms.items())
    laurent = [ergodec.direction_is_ergodic(one, (1,)), ergodec.direction_is_ergodic(two, (1, 0)),
               ergodec.group_is_ergodic(two)]
    documented = {kind.strip("`"): _keys(data) for kind, _, data in _readme_table(
        readme, "### Laurent certificates")}
    assert documented == {v.certificate: set(v.data) for v in laurent}
