"""The package holds what affdyn runs: no public function, method or class
that nothing in the package names, beyond a short allowlist.

A name counts as used when it appears as a code token (not in a string or
a comment) anywhere in ``src/affdyn`` other than at its definitions.
``__init__.py`` is left out, so that re-exporting a name is no use of it.
The check goes by name, so a name shared with a variable or another
definition that is used hides an unused one.
"""

import ast
import collections
import io
import tokenize
from pathlib import Path

import affdyn

ALLOWED = {
    # Read by perfbench, the benchmark harness, and by nothing in the package.
    "heights.weil_height_integer",  # the Fraction oracle's height integers
    "inequality.DeltaReport.to_csv_rows",  # traced reference layout
    "inequality.DeltaReport.to_json_dict",  # traced reference layout
    "kernel.max_bits",  # bits of each traced kernel result
    "polyring.Polynomial.evaluate",  # the Fraction oracle's evaluator
    # The growth constant of the planned proven bound on C (ROADMAP item 2).
    "heights.height_growth_constant",
}


def unused_definitions(package: Path) -> set[str]:
    tokens: collections.Counter = collections.Counter()
    definitions: dict[str, list[str]] = collections.defaultdict(list)
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                tokens[tok.string] += 1
        for node in ast.parse(text).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in (node, *members):
                if not isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    continue
                if item.name.startswith("_"):
                    continue
                owner = "" if item is node else f"{node.name}."
                definitions[item.name].append(f"{path.stem}.{owner}{item.name}")
    return {
        qualified
        for name, places in definitions.items()
        if tokens[name] == len(places)
        for qualified in places
    }


def test_every_public_definition_is_used_or_allowed():
    assert unused_definitions(Path(affdyn.__file__).parent) == ALLOWED
