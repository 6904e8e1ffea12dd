"""The package surface: exported names and the README example."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import cumulants

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(cumulants.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in cumulants.__all__ if not hasattr(cumulants, name)]
    assert missing == []
    assert len(set(cumulants.__all__)) == len(cumulants.__all__)


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_the_package_imports_only_the_standard_library():
    foreign = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "cumulants" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {name}")
    assert foreign == []


def _relative_imports(module: str) -> set[str]:
    """The package modules that `module` imports by relative import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_the_routes_share_no_code_that_computes_values():
    # The word-table kernels (prelie), the reference forms (forms) and the
    # partition sums (partitions) meet only in words and tables; the
    # coproducts, which the forms and the monotone checks read, build on
    # words alone.
    assert _relative_imports("prelie") == {"words"}
    assert _relative_imports("coproducts") == {"words"}
    assert not _relative_imports("forms") & {"prelie", "partitions"}
    assert not _relative_imports("partitions") & {"forms", "prelie", "coproducts"}


def _modules_loaded(code: str) -> set[str]:
    """Names in sys.modules after `code` runs in a fresh interpreter that
    reads no environment variables and no user site directory."""
    done = subprocess.run(
        [sys.executable, "-E", "-s", "-c", f"{code}\nimport sys; print(*sys.modules)",
         str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(done.stdout.split())


_IMPORT_CLI = "import sys; sys.path.insert(0, sys.argv[1]); import cumulants.cli"
# argparse brings gettext, whose first message lookup imports locale
_PARSER_MODULES = {"argparse", "gettext", "locale"}


def test_the_cli_import_pulls_in_no_introspection_modules():
    # Every `cumulants` call pays for the import of cumulants.cli; none of
    # its commands needs the modules behind dataclasses, nor argparse: the
    # CLI reads its own option table.  Modules the interpreter loads at
    # start-up are not counted against the package.
    started = _modules_loaded("")
    loaded = _modules_loaded(_IMPORT_CLI)
    assert "cumulants.cli" in loaded
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", *_PARSER_MODULES}
    assert sorted((loaded - started) & heavy) == []


def test_a_convert_call_loads_no_argument_parser_modules(tmp_path):
    table = Path(__file__).parent / "golden" / "moment-g2d4.json"
    out = tmp_path / "free.json"
    argv = ["convert", "-i", str(table), "--to", "free", "-o", str(out)]
    started = _modules_loaded("")
    loaded = _modules_loaded(f"{_IMPORT_CLI}; assert cumulants.cli.main({argv!r}) == 0")
    assert out.read_text(encoding="utf-8").startswith('{\n  "kind": "free",')
    assert sorted((loaded - started) & _PARSER_MODULES) == []
