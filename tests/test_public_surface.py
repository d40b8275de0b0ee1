"""The package's public surface: ``specorder.__all__`` names exactly what it
exports, and names retired from the package stay gone."""

import types

import specorder

RETIRED = ("LowerSetGen", "lower_membership", "lower_distance", "epsilon_fatten",
           "lower_indicator_complement", "lower_mollifier", "EmptyGeneratorError")


def test_public_surface():
    names = specorder.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(specorder, name)
    public = {name for name, value in vars(specorder).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public
    for name in RETIRED:
        try:
            exec(f"from specorder import {name}", {})
        except ImportError:
            continue
        raise AssertionError(f"{name} is still importable from specorder")
