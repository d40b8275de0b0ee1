"""The package's public surface: ``specorder.__all__`` names exactly what it
exports, and names retired from the package stay gone."""

import inspect
import types

import numpy as np
import pytest

import specorder
from specorder import functions, measures, order, resolution
from specorder.linalg import Projection
from specorder.spectral import JointSpectralMeasure

RETIRED = ("LowerSetGen", "lower_membership", "lower_distance", "epsilon_fatten",
           "lower_indicator_complement", "lower_mollifier", "EmptyGeneratorError",
           "OrderVerdict", "DominanceResult")


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



def test_retired_constructors_views_and_knobs_stay_gone():
    # one constructor per object, one corner sum, and no parameter that no
    # caller sets
    for name in ("from_arrays", "atoms", "projections"):
        assert not hasattr(JointSpectralMeasure, name), name
    assert list(inspect.signature(JointSpectralMeasure).parameters) == [
        "points", "basis", "ranks"]
    assert not hasattr(resolution, "_corner_sum_index")
    for fn, name in ((order.growth_ratio, "filter_tag"),
                     (order.bounded_vector_membership, "growth_margin"),
                     (measures.thm31_equivalence_check, "mollifier_levels"),
                     (measures.enumerate_downward_closed, "cap"),
                     (resolution.ProjValuedStepFunction.from_values, "dim"),
                     (functions.indicator_fn, "monotone_iota"),
                     (functions.table_fn, "monotone_iota"),
                     (functions.sum_fn, "kappa"),
                     (functions.product_fn, "kappa")):
        assert name not in inspect.signature(fn).parameters, (fn.__name__, name)
    assert "filter_tag" not in order.GrowthRatioReport.__dataclass_fields__
    # a rule carries no monotonicity claim; the audit on the atoms decides
    assert "monotone_iota" not in functions.BorelFunction.__dataclass_fields__
    with pytest.raises(TypeError):
        Projection(np.eye(2), dim=2)
