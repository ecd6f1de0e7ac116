import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fissile


def test_every_module_star_imports():
    # a name in __all__ that the module does not define breaks `import *`
    for info in pkgutil.iter_modules(fissile.__path__):
        namespace = {}
        exec(f"from fissile.{info.name} import *", namespace)
        assert namespace, info.name


def test_no_assert_statement_in_the_package():
    # ``python -O`` strips assert statements, so no guarantee may rest on one
    found = []
    for path in sorted(Path(fissile.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, found


def test_only_morphisms_and_spaces_take_a_check_flag():
    # every simplicial set is validated where it is built; only a morphism
    # or a space whose laws are known from how it was derived may skip its
    # validation.  A flag is a parameter with a default: the required
    # ``check`` of ``_fail`` is the name of the failed check
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                flags = positional[len(positional) - len(args.defaults) :]
                flags += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                if any(a.arg == "check" for a in flags):
                    found.append(name)
            visit(child, name)

    for path in sorted(Path(fissile.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    assert sorted(found) == ["PSpace.__init__", "SMorphism.__init__"]


def test_only_the_proved_builders_skip_validation():
    # a set built by calling FiniteSimplicialSet, or a morphism built with a
    # check argument, skips validation where it is built; each function
    # that does so states in its docstring why what it builds is valid, so
    # a new unchecked path needs a proof and an edit here
    sets, morphisms = set(), set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if isinstance(child, ast.Call):
                func = ast.unparse(child.func)
                if func == "FiniteSimplicialSet":
                    sets.add(scope)
                checks = [k.value for k in child.keywords if k.arg == "check"]
                checks += child.args[3:]
                if func == "SMorphism" and any(
                    ast.unparse(c) != "True" for c in checks
                ):
                    morphisms.add(scope)
            visit(child, name)

    for path in sorted(Path(fissile.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    assert sets == {"assemble", "wedge", "subsimplicial"}
    assert morphisms == {
        "compose",
        "invert_iso",
        "inclusion",
        "wedge",
        "wedge_combine",
        "reduced_cone_map",
    }


def test_verification_error_is_raised_on_the_checker_conditions_only():
    # the builder checks what the checker checks: VerificationError is
    # raised in one function, and every call of that function passes it the
    # checks of ``pair_checks`` or ``q_checks``, the checker's conditions
    raisers, calls = set(), []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if isinstance(child, ast.Raise) and child.exc is not None:
                if ast.unparse(child.exc).startswith("VerificationError"):
                    raisers.add(scope)
            if isinstance(child, ast.Call):
                calls.append(child)
            visit(child, name)

    for path in sorted(Path(fissile.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    (raiser,) = raisers
    passed = [
        ast.unparse(arg)
        for call in calls
        if isinstance(call.func, ast.Name) and call.func.id == raiser
        for arg in call.args + [k.value for k in call.keywords]
    ]
    assert passed and all(
        arg.startswith(("pair_checks(", "q_checks(")) for arg in passed
    ), passed


def test_no_json_dump_and_no_indent_in_the_package():
    # ``json.dump`` and any ``indent`` run CPython's pure-Python JSON
    # encoder; the writer's one-shot ``json.dumps`` runs the C encoder
    found = []
    for path in sorted(Path(fissile.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (
                ast.unparse(node.func) == "json.dump"
                or any(k.arg == "indent" for k in node.keywords)
            )
        ]
    assert not found, found


def _fresh(code):
    """The output of ``python -c code`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(fissile.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("modules", ["fissile.artifacts, fissile.wedge", "fissile.cli"])
def test_a_command_imports_only_what_it_runs(modules):
    # a construct or check reads neither the fissilizer, the suites, the
    # cover identities nor the word calculus, and no module imports
    # dataclasses; the command line imports the suites for ``verify`` and
    # the word calculus for the word commands only
    unused = [
        "dataclasses",
        "fissile.fissilizer",
        "fissile.suites",
        "fissile.identities",
        "fissile.brunnian",
    ]
    code = f"import sys, {modules}\nprint(sorted(set({unused}) & set(sys.modules)))"
    assert _fresh(code) == "[]"


def test_every_export_resolves_to_its_submodule_object():
    code = """import importlib, fissile
wrong = []
for name in fissile.__all__:
    if name != "__version__":
        obj = getattr(fissile, name)
        if getattr(importlib.import_module(obj.__module__), name) is not obj:
            wrong.append(name)
print(fissile.__version__, wrong)"""
    assert _fresh(code) == "0.1.0 []"


def test_star_import_binds_every_export():
    code = "from fissile import *\nimport fissile\nprint(set(fissile.__all__) - set(globals()))"
    assert _fresh(code) == "set()"


def test_an_unknown_name_is_an_attribute_error():
    code = """import fissile
try:
    fissile.no_such_name
except AttributeError as exc:
    print(exc)"""
    assert _fresh(code) == "module 'fissile' has no attribute 'no_such_name'"


def test_every_traced_layer_names_a_package_function():
    # perfbench/spans.py wraps each (module, attribute) of its LAYERS, and a
    # traced run (``perfbench/run.py --trace 1``) fails on a name that no
    # longer resolves.  LAYERS is read from the file's text, not imported
    import importlib

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["LAYERS"]
    ]
    assert layers
    for _prefix, module, attribute, _fields in layers:
        obj = importlib.import_module(f"fissile.{module}")
        for name in attribute.split("."):
            assert hasattr(obj, name), f"fissile.{module}.{attribute}"
            obj = getattr(obj, name)
        assert callable(obj), f"fissile.{module}.{attribute}"
    # the tracer counts wedge builds through every binding of the function
    from fissile import artifacts, simplicial, wedge, witnesses

    for module in (witnesses, wedge, artifacts):
        assert module.wedge is simplicial.wedge, module.__name__
