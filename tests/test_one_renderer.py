"""One renderer: a cleaning decision becomes SQL text in one place.

Every module under ``src/repro`` is parsed. The CASE renderers of a
decision (``value_case``, ``swap_case``, ``fd_repair_case``) are called
only from ``sql_emit.Layer.render``, and no ``Layer(...)`` is built
from SQL expressions: layers carry decisions, which the cube fold and
the renderer both read.
"""
import ast
from pathlib import Path

import repro
from repro.core.sql_emit import Layer

SRC = Path(repro.__file__).parent
RENDERERS = {"value_case", "swap_case", "fd_repair_case"}


def _name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _calls(node: ast.AST, scope: tuple[str, ...] = ()):
    """Every call in ``node`` with the qualified name of the function
    or class it is made in."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Call):
            yield ".".join(scope), child
        yield from _calls(child, inner)


def _all_calls():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 20
    for path in modules:
        rel = path.relative_to(SRC).as_posix()
        for scope, call in _calls(ast.parse(path.read_text(), rel)):
            yield rel, scope, call


def test_case_renderers_are_called_only_by_layer_render():
    callers = {(rel, scope, _name(call.func))
               for rel, scope, call in _all_calls()
               if _name(call.func) in RENDERERS}
    assert callers == {("core/sql_emit.py", "Layer.render", r)
                       for r in RENDERERS}


def test_no_layer_is_built_from_sql_expressions():
    assert "exprs" not in Layer.__dataclass_fields__
    built = [(rel, call) for rel, _, call in _all_calls()
             if _name(call.func) == "Layer"]
    assert built
    for rel, call in built:
        # the name, comments and order column are text; a decision
        # is a value map, a Swap or an FDRepair, never SQL
        decision = call.args[1:2] + [k.value for k in call.keywords
                                     if k.arg == "decision"]
        assert {k.arg for k in call.keywords} <= {
            "decision", "comments", "key_cols", "order_col"}, rel
        for node in decision:
            assert not any(
                isinstance(n, ast.JoinedStr)
                or (isinstance(n, ast.Constant) and isinstance(n.value, str))
                or (isinstance(n, ast.Call) and _name(n.func) in RENDERERS)
                for n in ast.walk(node)), (rel, ast.unparse(node))
