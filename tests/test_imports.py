"""Unused names in the package, found with the standard library's `ast`:
an imported name that its module never reads, a private module-level
constant, function or class that no module of the package reads, and a
private method, or method of a private class, that no module of the
package reads as an attribute, and a private attribute that a method
sets on `self` and no module of the package reads.  And the one integer
product expression:
`operator.mul` appears in `exactlin._rows_times_columns` only.  And the
one decode of packed fields: `.to_bytes(` and `array(` appear in
`exactlin._packed_product` only.  And one square product: the packed
product's parts `_packed_product`, `_packed_right` and `_packed_budget`
are used in `exactlin` only, where `_product` picks it, and the split
helper `_halves` is gone.  And no
stored echelon form is row-reduced again: `null_space` and
`SpanBuilder._spanning` never take an argument that reads
`._row_matrix()`.  And one growing echelon form: only
`SpanBuilder._add_integers` calls `_adjoin`.  And an algebra's certified
facts are found once: only the cached property
`MatrixAlgebra._generating_set` names `_spin_generators`, and only
`MatrixAlgebra._radical` names `_certified_radical`.  And one spin loop: only `algebra._spin_matrices` runs a
`for` loop over a list that the loop's body appends to.  And every loop
has a bound: no `while True`.  And one place reads rationals apart:
`.numerator` and `.denominator` are read in `exactlin` only, where
rational input becomes integers.  And one form of the radical inside:
no function of `algebra.py` calls the public `radical`.  And the radical
is certified through its kernel flag alone: `_certified_radical` calls
neither `_product` nor `_reduce`, so no ideal check of products comes
back.  And the radical's certificate is a record read by field name: no
code subscripts or tuple-unpacks `._radical` or a `_certified_radical`
result."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "matalg"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def read_names(tree):
    """Every name the module reads: loaded names, names in string
    annotations, and the names its `__all__` exports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= read_names(ast.parse(note.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {elt.value for elt in node.value.elts}
    return names


def imported_names(tree):
    """(name, line) for each name bound by an import, `__future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def private_constants(tree):
    """(name, line) for each private module-level name bound by an
    assignment."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and _private(target.id):
                yield target.id, node.lineno


def private_definitions(tree):
    """(name, line) for each private module-level function or class."""
    definition = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, definition) and _private(node.name):
            yield node.name, node.lineno


def private_methods(tree):
    """(Class.name, name, line) for each private method of a class, and
    each method but the dunders of a private class: no code outside the
    package reaches either."""
    definition = (ast.FunctionDef, ast.AsyncFunctionDef)
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if not isinstance(node, definition):
                    continue
                if _private(node.name) or (_private(cls.name) and not _dunder(node.name)):
                    yield f"{cls.name}.{node.name}", node.name, node.lineno


def read_attributes(tree):
    """Every attribute name the module reads, as in `x.name`."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def private_attributes(tree):
    """(Class.name, name, line) for each private attribute that a method
    of a class sets on `self` by an assignment, as in `self._x = ...` or
    `self._x, self._y = ...`."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for leaf in ast.walk(target):
                        if (
                            isinstance(leaf, ast.Attribute)
                            and isinstance(leaf.value, ast.Name)
                            and leaf.value.id == "self"
                            and _private(leaf.attr)
                        ):
                            yield f"{cls.name}.{leaf.attr}", leaf.attr, node.lineno


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_module_imports_a_name_it_never_reads(path):
    tree = _tree(path)
    read = read_names(tree)
    assert [f"{name} (line {line})" for name, line in imported_names(tree) if name not in read] == []


def unread_private(private_names):
    """The private module-level names, found by `private_names`, that no
    module of the package reads or imports."""
    trees = {path: _tree(path) for path in MODULES}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    imported = {name for tree in trees.values() for name, _ in imported_names(tree)}
    return [
        f"{path.relative_to(PACKAGE)}: {name} (line {line})"
        for path, tree in trees.items()
        for name, line in private_names(tree)
        if name not in read and name not in imported
    ]


def test_no_private_constant_goes_unread():
    assert unread_private(private_constants) == []


def test_no_private_function_or_class_goes_unread():
    assert unread_private(private_definitions) == []


def test_no_private_method_goes_unread():
    trees = {path: _tree(path) for path in MODULES}
    read = set().union(*(read_attributes(tree) for tree in trees.values()))
    assert [
        f"{path.relative_to(PACKAGE)}: {label} (line {line})"
        for path, tree in trees.items()
        for label, name, line in private_methods(tree)
        if name not in read
    ] == []


def test_no_private_attribute_is_set_and_never_read():
    trees = {path: _tree(path) for path in MODULES}
    read = set().union(*(read_attributes(tree) for tree in trees.values()))
    assert [
        f"{path.relative_to(PACKAGE)}: {label} (line {line})"
        for path, tree in trees.items()
        for label, name, line in private_attributes(tree)
        if name not in read
    ] == []


def test_the_scan_finds_unread_attributes():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self, other):\n"
        "        self._read = 1\n"
        "        self._unread, self.public = 2, 3\n"
        "        self._noted: int = 4\n"
        "        other._elsewhere = 5\n"
        "    def f(self):\n"
        "        return self._read + self._table\n"
        "class B:\n"
        "    def __init__(self):\n"
        "        self._table = []\n"
    )
    read = read_attributes(tree)
    assert [label for label, name, _ in private_attributes(tree) if name not in read] == ["A._unread", "A._noted"]


def test_the_scan_finds_unread_names():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "import math\n"
        "_ONE = 1\n"
        "_USED = 2\n"
        "@dataclass\n"
        "class C:\n"
        "    x: 'math.pi' = _USED\n"
    )
    read = read_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in read] == ["field"]
    assert [name for name, _ in private_constants(tree) if name not in read] == ["_ONE"]


def test_the_scan_finds_unread_definitions():
    tree = ast.parse(
        "def _unread(): pass\n"
        "def _called(): pass\n"
        "class _Unread: pass\n"
        "class _Base: pass\n"
        "class Public(_Base):\n"
        "    def _method(self): return _called()\n"
        "def __dunder__(): pass\n"
    )
    read = read_names(tree)
    unread = [name for name, _ in private_definitions(tree) if name not in read]
    assert unread == ["_unread", "_Unread"]


def test_the_scan_finds_unread_methods():
    tree = ast.parse(
        "class A:\n"
        "    def _unread(self): pass\n"
        "    def _called(self): pass\n"
        "    def __init__(self): self._called()\n"
        "    def public(self): pass\n"
        "    def _assigned(self): pass\n"
        "def f(a):\n"
        "    a._assigned = None\n"
    )
    read = read_attributes(tree)
    unread = [label for label, name, _ in private_methods(tree) if name not in read]
    assert unread == ["A._unread", "A._assigned"]


def test_the_scan_finds_unread_methods_of_private_classes():
    tree = ast.parse(
        "class _Private:\n"
        "    def __init__(self): pass\n"
        "    def unread(self): pass\n"
        "    def called(self): pass\n"
        "    def _hidden(self): pass\n"
        "class Public:\n"
        "    def unread(self): pass\n"
        "def f(p):\n"
        "    return p.called()\n"
    )
    read = read_attributes(tree)
    unread = [label for label, name, _ in private_methods(tree) if name not in read]
    assert unread == ["_Private.unread", "_Private._hidden"]


def integer_products(tree):
    """(function, line) for each use of `operator.mul` in the module, by
    the name of the innermost function around it: the sum-of-products
    expression of an integer product is `sum(map(operator.mul, ...))`."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            found.extend((function, node.lineno) for alias in node.names if alias.name == "mul")
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "mul"
            and isinstance(node.value, ast.Name)
            and node.value.id == "operator"
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_one_integer_product_expression():
    # every integer matrix product of the package, full or at some cells,
    # goes through the one expression in `exactlin._rows_times_columns`
    found = [
        (str(path.relative_to(PACKAGE)), function)
        for path in MODULES
        for function, _ in integer_products(_tree(path))
    ]
    assert found == [("exactlin.py", "_rows_times_columns")]


def test_the_scan_finds_a_second_product_expression():
    tree = ast.parse(
        "import operator\n"
        "from operator import add, mul\n"
        "def _rows_times_columns(rows, columns, cells):\n"
        "    return [sum(map(operator.mul, rows[i], columns[j])) for i, j in cells]\n"
        "class Matrix:\n"
        "    def __mul__(self, other):\n"
        "        return sum(map(operator.mul, self.row, other.column))\n"
        "def _sum(rows):\n"
        "    return sum(map(operator.add, rows))\n"
    )
    assert integer_products(tree) == [("<module>", 2), ("_rows_times_columns", 4), ("__mul__", 7)]


def field_decodes(tree):
    """(function, line) for each call of `.to_bytes` or of `array` (by name
    or as `array.array`) in the module, by the name of the innermost
    function around it: the decode of a packed product is
    `array("q", ....to_bytes(...))`."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "array" or (name == "to_bytes" and isinstance(func, ast.Attribute)):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_one_decode_of_packed_fields():
    # every packed product is read back in `exactlin._packed_product`
    found = sorted(
        {
            (str(path.relative_to(PACKAGE)), function)
            for path in MODULES
            for function, _ in field_decodes(_tree(path))
        }
    )
    assert found == [("exactlin.py", "_packed_product")]


def test_the_scan_finds_a_second_decode():
    tree = ast.parse(
        "import array as arrays\n"
        "from array import array\n"
        "def _packed_product(u, packed, size):\n"
        "    return array('q', f.to_bytes(8 * size, 'little'))\n"
        "class _Factor:\n"
        "    def entries(self):\n"
        "        return arrays.array('q', self.f.to_bytes(8, 'little'))\n"
        "def _bytes(x):\n"
        "    return x.bit_length(), bytes(x), int.from_bytes(x, 'little')\n"
    )
    assert field_decodes(tree) == [
        ("_packed_product", 4),
        ("_packed_product", 4),
        ("entries", 7),
        ("entries", 7),
    ]


PACKING = {"_packed_product", "_packed_right", "_packed_budget"}


def named_uses(tree, names):
    """(name, line) for each use of one of `names` in the module: a read or
    a binding of it as a name, an attribute of that name, an import of
    it, and a function or class defined under it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if name in names:
            found.append((name, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_the_packed_product_is_used_in_exactlin_only():
    # every full square product outside `exactlin` goes through `_product`,
    # which alone decides between packed and row by column
    found = [
        f"{path.relative_to(PACKAGE)}: {name} (line {line})"
        for path in MODULES
        if path.name != "exactlin.py"
        for name, line in named_uses(_tree(path), PACKING)
    ]
    assert found == []


def test_no_second_split_helper():
    # the rows and columns of a factor are split by `exactlin._Factor`
    found = [
        f"{path.relative_to(PACKAGE)}: {name} (line {line})"
        for path in MODULES
        for name, line in named_uses(_tree(path), {"_halves"})
    ]
    assert found == []


def test_the_scan_finds_uses_of_the_packed_product():
    tree = ast.parse(
        "from .exactlin import _Factor, _packed_budget as budget, _product\n"
        "import matalg.exactlin as exactlin\n"
        "def closure(x, y, n):\n"
        "    if x.bits + y.bits <= budget(n):\n"
        "        return exactlin._packed_product(x.flat, y.packed, n * n)\n"
        "    return _product(x, y)\n"
        "def _halves(x, n):\n"
        "    return _packed_right, x._halves\n"
    )
    assert named_uses(tree, PACKING) == [("_packed_budget", 1), ("_packed_product", 5), ("_packed_right", 8)]
    assert named_uses(tree, {"_halves"}) == [("_halves", 7), ("_halves", 8)]


REDUCERS = {"null_space", "_spanning"}


def re_reductions(tree):
    """(reducer, line) for each call of `null_space` or
    `SpanBuilder._spanning`, by name or as an attribute, whose arguments
    read `._row_matrix()`: the rows of a `Subspace` are fully reduced
    already (`_integer_form`)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in REDUCERS:
            continue
        arguments = [*node.args, *(keyword.value for keyword in node.keywords)]
        if any(
            isinstance(inner, ast.Attribute) and inner.attr == "_row_matrix"
            for argument in arguments
            for inner in ast.walk(argument)
        ):
            found.append((name, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_no_stored_echelon_form_is_reduced_again():
    found = [
        f"{path.relative_to(PACKAGE)}: {name} (line {line})"
        for path in MODULES
        for name, line in re_reductions(_tree(path))
    ]
    assert found == []


def test_the_scan_finds_a_second_reduction():
    tree = ast.parse(
        "def f(space, m):\n"
        "    a = null_space(space._row_matrix())._row_matrix()\n"
        "    b = exactlin.null_space(m=space._row_matrix() * m)\n"
        "    c = SpanBuilder._spanning(9, (row for row in space._row_matrix().entries))\n"
        "    d = null_space(m)._row_matrix()\n"
        "    e = _kernel(*space._integer_form(), 3)._row_matrix()\n"
        "    return SpanBuilder._spanning(9, space._integer_form()[1])\n"
    )
    assert re_reductions(tree) == [("null_space", 2), ("null_space", 3), ("_spanning", 4)]


def adjoin_sites(tree):
    """(scope, line) for each call of `_adjoin`, by name or as an
    attribute, by the dotted name of the classes and functions around it:
    a growing echelon form is a `SpanBuilder`, never a rows dict kept by
    hand."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "_adjoin":
                found.append((scope or "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_one_growing_echelon_form():
    found = [
        (str(path.relative_to(PACKAGE)), scope)
        for path in MODULES
        for scope, _ in adjoin_sites(_tree(path))
    ]
    assert found == [("exactlin.py", "SpanBuilder._add_integers")]


def test_the_scan_finds_a_second_adjoin_site():
    # the two hand-kept echelon forms that `SpanBuilder` replaced
    tree = ast.parse(
        "class SpanBuilder:\n"
        "    def _add_integers(self, vec):\n"
        "        residual = _reduce(vec, self._rows.items(), self._den)\n"
        "        if not any(residual):\n"
        "            return None\n"
        "        self._den = _adjoin(self._rows, residual, self._den)\n"
        "        return residual\n"
        "def _echelon(vectors):\n"
        "    rows = {}\n"
        "    den = 1\n"
        "    for vec in vectors:\n"
        "        residual = _reduce(vec, rows.items(), den)\n"
        "        if any(residual):\n"
        "            den = _adjoin(rows, residual, den)\n"
        "    return rows, den\n"
        "class _QuotientAlgebra:\n"
        "    def min_poly(self, z, one):\n"
        "        rows, den = {}, 1\n"
        "        for k in range(self.dim + 1):\n"
        "            residual = _reduce((*current[1], *tag), rows.items(), den)\n"
        "            den = exactlin._adjoin(rows, residual, den)\n"
    )
    assert adjoin_sites(tree) == [
        ("SpanBuilder._add_integers", 6),
        ("_echelon", 14),
        ("_QuotientAlgebra.min_poly", 21),
    ]


# The one scope that may name each function that finds a certified fact of
# an algebra: the cached property that keeps it.
CERTIFIED_FACTS = {
    "_spin_generators": "MatrixAlgebra._generating_set",
    "_certified_radical": "MatrixAlgebra._radical",
}


def certified_fact_reads(tree):
    """(name, scope, line) for each use of a name of `CERTIFIED_FACTS`, as
    a name or an attribute, by the dotted name of the classes and functions
    around it, outside its one scope: the generating set and the radical
    are found by the cached properties of `MatrixAlgebra` only, never by a
    second call or a fallback."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name in CERTIFIED_FACTS and scope != CERTIFIED_FACTS[name]:
            found.append((name, scope or "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_one_source_of_generating_sets():
    found = [
        f"{path.relative_to(PACKAGE)}: {name} in {scope} (line {line})"
        for path in MODULES
        for name, scope, line in certified_fact_reads(_tree(path))
    ]
    assert found == []


def test_the_scan_finds_a_second_source_of_generators():
    tree = ast.parse(
        "class MatrixAlgebra:\n"
        "    @cached_property\n"
        "    def _generating_set(self):\n"
        "        return _spin_generators(self.n, self.space)\n"
        "    @cached_property\n"
        "    def _radical(self):\n"
        "        return _certified_radical(self)\n"
        "def _certified_radical(a):\n"
        "    generators = a._generating_set or _spin_generators(a.n, a.space)\n"
        "def semisimple_blocks(a):\n"
        "    certificate = algebra._certified_radical(a)\n"
        "class _QuotientAlgebra:\n"
        "    def center(self):\n"
        "        spin = _spin_generators\n"
    )
    assert certified_fact_reads(tree) == [
        ("_spin_generators", "_certified_radical", 9),
        ("_certified_radical", "semisimple_blocks", 11),
        ("_spin_generators", "_QuotientAlgebra.center", 14),
    ]


def unbounded_loops(tree):
    """(function, line) for each `while` loop whose condition is a constant
    that is true, as in `while True` or `while 1`, by the name of the
    innermost function around it: a loop with no stated bound."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.While) and isinstance(node.test, ast.Constant) and node.test.value:
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_no_loop_without_a_bound():
    found = [
        f"{path.relative_to(PACKAGE)}: {function} (line {line})"
        for path in MODULES
        for function, line in unbounded_loops(_tree(path))
    ]
    assert found == []


def test_the_scan_finds_a_loop_without_a_bound():
    tree = ast.parse(
        "def _poly_rem(a, b):\n"
        "    while True:\n"
        "        while r and not r[-1]:\n"
        "            r.pop()\n"
        "    for _ in range(len(a)):\n"
        "        pass\n"
        "class Sampler:\n"
        "    def draw(self):\n"
        "        while 1:\n"
        "            pass\n"
        "while False:\n"
        "    pass\n"
    )
    assert unbounded_loops(tree) == [("_poly_rem", 2), ("draw", 9)]


GROWERS = {"append", "extend"}


def growing_loops(tree):
    """(function, line) for each `for` loop over a list, as in `for w in
    words` or `for k, w in enumerate(words)`, whose body appends to or
    extends that list, by the name of the innermost function around it: a
    spin, which multiplies each word it finds in turn."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.For, ast.AsyncFor)):
            source = node.iter
            if isinstance(source, ast.Call) and getattr(source.func, "id", None) == "enumerate" and source.args:
                source = source.args[0]
            if any(
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in GROWERS
                and ast.dump(inner.func.value) == ast.dump(source)
                for statement in node.body
                for inner in ast.walk(statement)
            ):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_one_spin_loop():
    found = [
        (str(path.relative_to(PACKAGE)), function)
        for path in MODULES
        for function, _ in growing_loops(_tree(path))
    ]
    assert found == [("algebra.py", "_spin_matrices")]


def test_the_scan_finds_a_second_spin():
    tree = ast.parse(
        "def _spin_matrices(builder, words, images):\n"
        "    for k, w in enumerate(words):\n"
        "        for y in images:\n"
        "            words.append(w * y)\n"
        "def _spin(words, images):\n"
        "    for w in words:\n"
        "        if w:\n"
        "            words.extend(w * y for y in images)\n"
        "class Span:\n"
        "    def grow(self):\n"
        "        for w in self.words:\n"
        "            self.words.append(w)\n"
        "def _copy(words):\n"
        "    out = []\n"
        "    for w in words:\n"
        "        out.append(w)\n"
        "    for w in sorted(words):\n"
        "        words.append(w)\n"
    )
    assert growing_loops(tree) == [("_spin_matrices", 2), ("_spin", 6), ("grow", 11)]


RATIONAL_PARTS = {"numerator", "denominator"}


def rational_part_reads(tree):
    """(function, line) for each read of an attribute `.numerator` or
    `.denominator`, by the name of the innermost function around it: code
    that takes a rational apart instead of working on integers."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in RATIONAL_PARTS:
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_rationals_are_taken_apart_in_exactlin_only():
    found = [
        f"{path.relative_to(PACKAGE)}: {function} (line {line})"
        for path in MODULES
        if path.name != "exactlin.py"
        for function, line in rational_part_reads(_tree(path))
    ]
    assert found == []


def test_the_scan_finds_rational_parts():
    # the root loops of `_rational_roots` and `_central_idempotents` when
    # the roots were `Fraction`s, not integer pairs
    tree = ast.parse(
        "def _rational_roots(coeffs):\n"
        "    for y in _integer_roots(monic):\n"
        "        root = Fraction(y, lead)\n"
        "        r, s = root.numerator, root.denominator\n"
        "def _central_idempotents(quotient):\n"
        "    for lam in roots:\n"
        "        r, s = lam.numerator, lam.denominator\n"
        "        g = _deflate(f, r, s)\n"
        "def _numerator_denominator(text):\n"
        "    numerator, denominator = text.split('/')\n"
        "    return int(numerator), getattr(x, 'denominator')\n"
    )
    assert rational_part_reads(tree) == [
        ("_rational_roots", 4),
        ("_rational_roots", 4),
        ("_central_idempotents", 7),
        ("_central_idempotents", 7),
    ]


def radical_calls(tree):
    """(function, line) for each call of `radical`, by name or as an
    attribute, by the name of the innermost function around it: inside the
    algebra module the radical comes from `_certified_radical`, with its
    coordinates in the algebra and its kernel flag, never from the public
    `radical`, which drops both."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "radical":
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_no_function_of_the_algebra_module_calls_radical():
    assert radical_calls(_tree(PACKAGE / "algebra.py")) == []


def test_the_scan_finds_a_call_of_radical():
    # `semisimple_blocks` as it was when it called `radical` and its
    # quotient read the radical's n^2 rows back at the pivots of A
    tree = ast.parse(
        "def semisimple_blocks(a: MatrixAlgebra) -> WedderburnData:\n"
        "    \"\"\"Radical dimension and the block sizes of the semisimple quotient.\n"
        "\n"
        "    The quotient Q = A/rad A is cut by the primitive idempotents e of its\n"
        "    center into the blocks eQ.  Each has dimension Tr(x -> ex), the rank\n"
        "    of that idempotent map, and is central simple, so the dimension is a\n"
        "    perfect square.  Each block's lift trace (`WedderburnData`) is the\n"
        "    trace of the lift of e along the section rows of the quotient.\n"
        "    \"\"\"\n"
        "    rad = radical(a)\n"
        "    if rad.dimension == a.dimension:\n"
        "        # only the zero space (quotient 0, no blocks): a nonzero unital algebra\n"
        "        # holds the identity, which is not nilpotent; `radical` raised on others\n"
        "        return WedderburnData(rad, rad.dimension, 0, (), ())\n"
        "    quotient = _QuotientAlgebra(a, rad)\n"
        "    idempotents = _central_idempotents(quotient)\n"
        "    sizes = traces = None\n"
        "    if idempotents is not None:\n"
        "        dims = [quotient.left_trace(e) for e in idempotents]\n"
        "        if any(d < 1 or math.isqrt(int(d)) ** 2 != d for d in dims):\n"
        "            raise RuntimeError(\"a block dimension of the semisimple quotient is not a positive square\")\n"
        "        if sum(dims) != quotient.dim:\n"
        "            raise RuntimeError(\"block dimensions do not add up to the quotient\")\n"
        "        blocks = sorted((math.isqrt(int(d)), quotient.lift_trace(e)) for d, e in zip(dims, idempotents))\n"
        "        if any(trace < t or trace % t for t, trace in blocks):\n"
        "            raise RuntimeError(\"a lift trace is not a positive multiple of its block size\")\n"
        "        sizes, traces = zip(*blocks)\n"
        "    return WedderburnData(\n"
        "        radical_space=rad,\n"
        "        radical_dim=rad.dimension,\n"
        "        semisimple_dim=quotient.dim,\n"
        "        block_sizes=sizes,\n"
        "        lift_traces=traces,\n"
        "    )\n"
    )
    assert radical_calls(tree) == [("semisimple_blocks", 10)]


def certificate_products(tree):
    """(name, line) for each call of `_product` or `_reduce`, by name or as
    an attribute, inside `_certified_radical`: the radical is certified by
    its flag check and its section Gram block, and forms no product of
    `a` with R and reduces none."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == "_certified_radical"
        if inside and isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("_product", "_reduce"):
                found.append((name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_the_radical_forms_no_product_and_reduces_nothing():
    assert certificate_products(_tree(PACKAGE / "algebra.py")) == []


def test_the_scan_finds_the_ideal_check():
    # the ideal check as `_certified_radical` made it before its flag
    # check replaced it, with a call through the module beside it
    tree = ast.parse(
        "def _certified_radical(a):\n"
        "    rows = [_Factor(r, n) for _, r in rad._integer_form()[1]]\n"
        "    for g in generators:\n"
        "        for r in rows:\n"
        "            for x, y in ((g, r), (r, g)):\n"
        "                if x.column_mask & y.row_mask:\n"
        "                    p = _product(x, y)\n"
        "                    if any(_reduce([p[q] for q in pivots], kernel, den)):\n"
        "                        raise RuntimeError('radical candidate is not a two-sided ideal')\n"
        "    return exactlin._product(rows[0], rows[0])\n"
        "def schur_commutative_check(a):\n"
        "    return _product(x, y) != _product(y, x)\n"
    )
    assert certificate_products(tree) == [("_product", 7), ("_reduce", 8), ("_product", 10)]


def positional_certificate_reads(tree):
    """(kind, line) for each read by position of the radical's certificate,
    `MatrixAlgebra._radical` or a `_certified_radical(...)` result: a
    subscript of one ("subscript"), or an assignment that unpacks one into
    a tuple or list ("unpack").  The certificate is a record
    (`_RadicalCertificate`), and its readers name its fields."""

    def certificate(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "_radical"
        if isinstance(node, ast.Call):
            func = node.func
            return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "_certified_radical"
        return False

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and certificate(node.value):
            found.append(("subscript", node.lineno))
        elif (
            isinstance(node, ast.Assign)
            and certificate(node.value)
            and any(isinstance(t, (ast.Tuple, ast.List)) for t in node.targets)
        ):
            found.append(("unpack", node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_the_radical_certificate_is_read_by_field_name():
    found = [
        f"{path.relative_to(PACKAGE)}: {kind} (line {line})"
        for path in MODULES
        for kind, line in positional_certificate_reads(_tree(path))
    ]
    assert found == []


def test_the_scan_finds_positional_reads_of_the_certificate():
    # the readers as they were when the certificate was a 4-tuple, beside
    # the field reads that replace them
    tree = ast.parse(
        "def semisimple_blocks(a):\n"
        "    rad, coords, _, _ = a._radical\n"
        "    quotient = _QuotientAlgebra(a, a._radical)\n"
        "def invariant_flag(a):\n"
        "    basis, dims = a._radical[2]\n"
        "    ends = set(accumulate(a._radical.flag_type))\n"
        "def radical_coordinates(a):\n"
        "    [rad, coords, flag, c] = algebra._certified_radical(a)\n"
        "    return _certified_radical(a)[1], _certified_radical(a).coords\n"
    )
    assert positional_certificate_reads(tree) == [("unpack", 2), ("subscript", 5), ("unpack", 8), ("subscript", 9)]
