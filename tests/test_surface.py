"""The package holds what affdyn runs: no public function, method or class
that nothing in the package names, beyond a short allowlist.

A function or class counts as used when its name appears as a code token
(not in a string or a comment) anywhere in ``src/affdyn`` other than at
its definitions; a method counts as used only when its name follows a
``.``, so that a local variable of the same name does not hide it.
``__init__.py`` is left out, so that re-exporting a name is no use of it.
The check goes by name, so a used definition or attribute of the same
name still hides an unused one.
"""

import ast
import collections
import io
import tokenize
from pathlib import Path

import affdyn

ALLOWED = {
    # Read by perfbench, the benchmark harness, and by nothing in the package.
    "divisors.DivisorClass.scale",  # perfbench's tests build a wrong divisor
    "inequality.DeltaReport.to_csv_rows",  # traced reference layout
    "inequality.DeltaReport.to_json_dict",  # traced reference layout
    "kernel.max_bits",  # bits of each traced kernel result
    "polyring.Polynomial.evaluate",  # the Fraction oracle's evaluator
    # The growth constant of the planned proven bound on C (ROADMAP item 2).
    "heights.height_growth_constant",
}


def unused_definitions(package: Path) -> set[str]:
    tokens: collections.Counter = collections.Counter()
    attributes: collections.Counter = collections.Counter()
    definitions: dict[str, list[str]] = collections.defaultdict(list)
    methods: dict[str, list[str]] = collections.defaultdict(list)
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        previous = ""
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                tokens[tok.string] += 1
                if previous == ".":
                    attributes[tok.string] += 1
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                previous = tok.string
        for node in ast.parse(text).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in (node, *members):
                if not isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    continue
                if item.name.startswith("_"):
                    continue
                if item is node:
                    definitions[item.name].append(f"{path.stem}.{item.name}")
                else:
                    methods[item.name].append(f"{path.stem}.{node.name}.{item.name}")
    unused = set()
    for name, places in definitions.items():
        # Each definition of a method by the same name is a token too.
        if tokens[name] == len(places) + len(methods.get(name, ())):
            unused.update(places)
    for name, places in methods.items():
        if not attributes[name]:
            unused.update(places)
    return unused


def test_every_public_definition_is_used_or_allowed():
    assert unused_definitions(Path(affdyn.__file__).parent) == ALLOWED
