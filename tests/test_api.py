import ast
import inspect
from pathlib import Path

import pytest

import umeb
from umeb import DEFAULT_TOLERANCES, Tolerances, constructions, linalg, spectral, verification

# Every public name of the library modules, not only those the package re-exports.
PUBLIC = {
    name: getattr(module, name)
    for module in (linalg, constructions, verification, spectral)
    for name in module.__all__
}


def _public_callables():
    for name, obj in PUBLIC.items():
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj, callable):
                if not attr.startswith("_") and not inspect.isclass(member):
                    yield f"{name}.{attr}", member


def _tolerance_parameters(fn):
    try:
        params = inspect.signature(fn).parameters
    except ValueError:  # a builtin without a signature, e.g. an exception's
        return []
    return [p for p in params if p == "tol" or p.endswith("_tol")]


def test_no_public_callable_takes_a_tolerance():
    found = {name: ps for name, fn in _public_callables() if (ps := _tolerance_parameters(fn))}
    assert found == {}


def test_tolerances_hold_only_the_package_thresholds():
    assert Tolerances() == DEFAULT_TOLERANCES
    with pytest.raises(TypeError):
        Tolerances(unitarity_tol=1.0)


def test_the_guard_walks_every_module_name_and_the_lift_layout():
    assert set(umeb.__all__) - {"__version__"} <= set(PUBLIC)
    names = {name for name, _ in _public_callables()}
    assert {"as_stack", "as_lift", "leaf_shape", "ElementSpectrum", "CertificateCheck"} <= names
    assert {f"Lift.{m}" for m in ("fits", "blocks", "right_factors", "products", "split")} <= names


PACKAGE = Path(umeb.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_cross_module_uses(source, filename):
    """Each ``from .<module> import _name`` and each ``<module>._name`` read
    through a sibling module imported by ``from . import <module>``."""
    tree = ast.parse(source, filename)
    found, siblings = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in MODULES:
                    siblings.add(alias.asname or alias.name)
                elif node.module is not None and _private(alias.name):
                    found.append(f"{filename}:{node.lineno} from .{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"{filename}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_the_private_use_guard_finds_both_forms():
    source = (
        "from .linalg import _hidden, shown\n"
        "from . import spectral\n"
        "def f():\n"
        "    from . import verification as v\n"
        "    return spectral._phases, v._project, spectral.signature, v.__name__\n"
    )
    assert _private_cross_module_uses(source, "m.py") == [
        "m.py:1 from .linalg import _hidden", "m.py:5 spectral._phases", "m.py:5 v._project",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_reads_a_private_name_of_another(path):
    assert _private_cross_module_uses(path.read_text(encoding="utf-8"), path.name) == []


def test_the_factored_view_reads_nothing_but_itself():
    # A method of the view that took an argument could take a stack back in:
    # every public method and property of Factored takes only self.
    members = {name: member for name, member in vars(constructions.Factored).items()
               if not name.startswith("_")}
    assert {"tiles", "right_factors", "complement"} <= set(members)
    for name, member in members.items():
        fn = getattr(member, "func", getattr(member, "fget", member))
        assert list(inspect.signature(fn).parameters) == ["self"], name
