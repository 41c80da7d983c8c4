"""Every top-level function, class and constant of the package is used,
and so is every method and property of its classes.

A top-level name counts as used when it appears as a word in a Python file
under src/, tests/, bench/ or scripts/ other than on its own definition line
or in an import statement.  A method or property counts as used only when it
is read as an attribute (`.name`) in one of those files: a bare word, such as
a local variable of the same name, is not enough.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sixnodal"
SEARCHED = ("src", "tests", "bench", "scripts")


def _definitions():
    """(file, line, name) of each top-level def, class and assigned name."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.lineno, node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        yield path, node.lineno, target.id


def _methods():
    """(class, name) of each method and property of the package's classes,
    dunder methods left out."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not item.name.startswith("__"):
                        yield node.name, item.name


def _attribute_reads():
    """Names read as attributes in any searched Python file."""
    names = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            names.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return names


def _word_counts():
    """Word counts over every searched Python file, import lines left out,
    and the lines of each file by (file, line number)."""
    counts: Counter = Counter()
    lines = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            imports = set()
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    imports.update(range(node.lineno, node.end_lineno + 1))
            for number, line in enumerate(text.splitlines(), 1):
                lines[path, number] = line
                if number not in imports:
                    counts.update(re.findall(r"\w+", line))
    return counts, lines


def test_every_top_level_name_is_used():
    counts, lines = _word_counts()
    defs = list(_definitions())
    own: Counter = Counter()
    for path, number, name in defs:
        own[name] += re.findall(r"\w+", lines[path, number]).count(name)
    dead = sorted({name for _, _, name in defs if counts[name] <= own[name]})
    assert dead == []


def test_every_method_and_property_is_used():
    reads = _attribute_reads()
    dead = sorted(f"{cls}.{name}" for cls, name in _methods() if name not in reads)
    assert dead == []
