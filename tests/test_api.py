import inspect

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


def test_no_public_callable_takes_a_tolerance_but_the_search_nomination():
    found = {name: ps for name, fn in _public_callables() if (ps := _tolerance_parameters(fn))}
    # extension_tol only nominates a witness; its verdict is re-verified at
    # DEFAULT_TOLERANCES.
    assert found == {"search_extension": ["extension_tol"]}


def test_tolerances_hold_only_the_package_thresholds():
    assert Tolerances() == DEFAULT_TOLERANCES
    with pytest.raises(TypeError):
        Tolerances(unitarity_tol=1.0)


def test_the_guard_walks_every_module_name_and_the_lift_layout():
    assert set(umeb.__all__) - {"__version__"} <= set(PUBLIC)
    names = {name for name, _ in _public_callables()}
    assert {"as_stack", "as_lift", "leaf_shape", "ElementSpectrum", "CertificateCheck"} <= names
    assert {f"Lift.{m}" for m in ("fits", "blocks", "right_factors", "products", "split")} <= names
