"""The package holds what affdyn runs: no public function, method or class
that nothing in the package names, beyond a short allowlist.

A function or class counts as used when its name appears as a code token
(not in a string or a comment) anywhere in ``src/affdyn`` other than at
its definitions.  A method counts as used only when an attribute read
(``x.<name>``) resolves to it:

- ``self.<name>`` inside a class resolves to that class's method;
- any other ``x.<name>`` resolves to the one class that defines a method
  of that name, when only one does.

An attribute read of a name that two or more classes define resolves to
none of them: those methods are reported as ambiguous, not as used, and
the test lists each with the reason it is reached that way.
``__init__.py`` is left out, so that re-exporting a name is no use of it.
"""

import ast
import collections
import io
import textwrap
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

# Methods read only through a name that several classes define.
SAMPLERS = ("BoxSampler", "RationalBoxSampler", "RandomRationalSampler", "OrbitSampler",
            "CompositeSampler")
AMBIGUOUS = {
    # The sampler protocol: batch_verify and CompositeSampler call describe
    # and points on whatever sampler they are given.
    *(f"inequality.{cls}.{name}" for cls in SAMPLERS for name in ("describe", "points")),
    # cmd_canonical reads the height's, and the height reads each side's
    # through self.plus and self.minus.
    "heights.CanonicalHeight.to_report",
    "heights.CanonicalHeightEstimate.to_report",
}


def surface(package: Path) -> tuple[set[str], set[str]]:
    """The unused public definitions of ``package`` and its ambiguous
    methods, as ``module.name`` and ``module.Class.name``."""
    tokens: collections.Counter = collections.Counter()
    definitions: dict[str, list[str]] = collections.defaultdict(list)
    methods: dict[str, list[str]] = collections.defaultdict(list)
    reads: list[tuple[str | None, str]] = []  # (class of a self read, name)
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                tokens[tok.string] += 1
        tree = ast.parse(text)
        for node in tree.body:
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
        # ast.walk visits an outer class before an inner one, so a self
        # read belongs to the innermost class around it.
        owner = {}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for n in ast.walk(cls):
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                    if n.value.id == "self":
                        owner[id(n)] = f"{path.stem}.{cls.name}"
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                reads.append((owner.get(id(n)), n.attr))

    unused = set()
    for name, places in definitions.items():
        # Each definition of a method by the same name is a token too.
        if tokens[name] == len(places) + len(methods.get(name, ())):
            unused.update(places)
    used, ambiguous = set(), set()
    for cls, name in reads:
        places = methods.get(name, [])
        if cls is not None and f"{cls}.{name}" in places:
            used.add(f"{cls}.{name}")
        elif len(places) == 1:
            used.update(places)
        else:
            ambiguous.update(places)
    every_method = {place for places in methods.values() for place in places}
    return unused | (every_method - used - ambiguous), ambiguous - used


def test_every_public_definition_is_used_or_allowed():
    unused, ambiguous = surface(Path(affdyn.__file__).parent)
    assert unused == ALLOWED
    assert ambiguous == AMBIGUOUS


def test_method_reads_resolve_by_self_and_by_a_unique_name(tmp_path):
    (tmp_path / "shapes.py").write_text(textwrap.dedent('''
        class Circle:
            def area(self):
                return self.radius()

            def radius(self):
                return 1

            def scale(self):
                return 2

        class Square:
            def area(self):
                return 4

            def radius(self):
                return 0

            def side(self):
                return self.area()

        class Stack:
            def push(self):
                pass

        def total(shapes):
            return sum(s.area() for s in shapes) + shapes[1].side()

        def unused_function():
            pass

        TOTAL = total((Circle(), Square()))
    '''))
    unused, ambiguous = surface(tmp_path)
    # Circle.radius and Square.area are read through self; Square.side by
    # its unique name.  Circle.area is read only as s.area, which two
    # classes define; Square.radius and the rest are never read.
    assert ambiguous == {"shapes.Circle.area"}
    assert unused == {
        "shapes.Circle.scale",
        "shapes.Square.radius",
        "shapes.Stack",
        "shapes.Stack.push",
        "shapes.unused_function",
    }
