"""Planning builds no PySpark ``Column``.

``repro.profiling`` (the value cube every planner reads, and the
profiles read from it), every ``repro.core`` module and the baselines
that plan from the cube (Raha+Baran, RetClean and HoloClean) are
parsed. Each imports nothing from pyspark but the ``DataFrame`` type,
so nothing from ``pyspark.sql.functions``, and calls nothing that
builds a ``Column`` (``col``, ``lit``, ``cast``, ``alias``, ...): the
cube's projection is one ``selectExpr`` string list, and the cleaning
is one SQL statement.
"""
import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
MODULES = [
    *(SRC / "profiling" / m for m in ("__init__.py", "column_profile.py",
                                      "fd.py")),
    *sorted((SRC / "core").glob("*.py")),
    *(SRC / "baselines" / m for m in ("holoclean.py", "raha_baran.py",
                                      "retclean.py")),
]
#: the pyspark names a planning module may import: types, no builders
ALLOWED = {("pyspark.sql", "DataFrame")}
#: the functions, and the ``Column`` methods, that build a ``Column``
FUNCTIONS = {"Column", "col", "column", "lit", "expr", "when"}
METHODS = {"cast", "alias", "otherwise", "isNull", "isNotNull"}


def test_the_planning_modules_are_found():
    names = {p.relative_to(SRC).as_posix() for p in MODULES}
    assert {"profiling/fd.py", "profiling/column_profile.py",
            "core/pipeline.py", "core/sql_emit.py", "core/counts.py",
            "baselines/raha_baran.py", "baselines/retclean.py",
            "baselines/holoclean.py"} <= names
    assert len(names) > 10


@pytest.mark.parametrize(
    "path", MODULES, ids=[p.relative_to(SRC).as_posix() for p in MODULES])
def test_planning_module_builds_no_column(path):
    tree = ast.parse(path.read_text(), path.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "pyspark"
                           for a in node.names), ast.unparse(node)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "pyspark"):
            assert {(node.module, a.name) for a in node.names} <= ALLOWED, (
                ast.unparse(node))
        elif isinstance(node, ast.Call):
            f = node.func
            assert not (isinstance(f, ast.Name) and f.id in FUNCTIONS
                        or isinstance(f, ast.Attribute)
                        and f.attr in METHODS), ast.unparse(node)
