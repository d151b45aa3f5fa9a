"""No catch-all exception handler in the package.

``except Exception``, ``except BaseException`` and a bare ``except:`` would
turn a bug into an exit code, a warning or a row of ``report --presets``.
"""

import ast
from pathlib import Path

import rydqubo

PACKAGE = Path(rydqubo.__file__).parent
CATCH_ALL = {"Exception", "BaseException"}


def catch_all_handlers(source: str) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of every catch-all handler."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and (
                node.type is None
                or {n.id for n in ast.walk(node.type)
                    if isinstance(n, ast.Name)} & CATCH_ALL):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_guard_flags_catch_alls_and_accepts_specific_handlers():
    source = ("def f():\n    try:\n        pass\n    except Exception:\n"
              "        pass\n    except (KeyError, BaseException):\n"
              "        pass\n    except ValueError:\n        pass\n"
              "try:\n    pass\nexcept:\n    pass\n")
    assert catch_all_handlers(source) == [("f", 4), ("f", 6), ("<module>", 12)]


def test_package_has_no_catch_all_handler():
    found = [(path.stem, function, line)
             for path in sorted(PACKAGE.glob("*.py"))
             for function, line in catch_all_handlers(path.read_text())]
    assert found == []
