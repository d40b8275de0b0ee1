"""Every probe of the benchmark's tracer still fires.

The per-layer benchmark metrics come from ``bench/tracer.py``, which wraps
package functions by name. A refactor that renames a probed function or
routes around it would silently zero that layer's metric; this test runs
one small job of each kind under the tracer and fails on any probe that
recorded nothing.
"""

import importlib.util

import numpy as np

import specorder.resolution as resolution
import specorder.spectral as spectral
from conftest import ROOT
from specorder.cli import main
from specorder.io import measure_to_dict, save_json, tuple_to_dict
from specorder.measures import AtomicMeasure


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_fires(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_json(str(a), tuple_to_dict(spectral.validate_tuple([np.diag([0.5, 1.0]),
                                                             np.diag([1.0, 2.0])])))
    save_json(str(b), tuple_to_dict(spectral.validate_tuple([np.diag([1.0, 2.0]),
                                                             np.diag([1.5, 3.0])])))
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_json(str(m1), measure_to_dict(AtomicMeasure.from_atoms([[0.0, 0.0], [1.0, 1.0]],
                                                                [1.0, 1.0])))
    save_json(str(m2), measure_to_dict(AtomicMeasure.from_atoms([[1.0, 0.0], [1.0, 1.0]],
                                                                [1.0, 1.0])))

    def round_trip():
        e = spectral.joint_measure(spectral.validate_tuple([np.diag([0.0, 1.0, 1.0])]))
        return resolution.reconstruct_measure(resolution.ProjValuedStepFunction.from_measure(e))

    tracer_module = load_tracer()
    # note which probes' counters ran; the counters themselves are unchanged
    counted = set()

    def noting(name, counter):
        def count(args, result):
            counted.add(name)
            return counter(args, result)
        return count

    probes = tuple((module, attr, span, counter and noting(f"{module}.{attr}", counter))
                   for module, attr, span, counter in tracer_module.PROBES)
    tracer_module.PROBES = probes
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert tracer.run_job(lambda: main(["check-order", str(a), str(b),
                                            "--alpha-max", "2"])) == 0
        assert tracer.run_job(lambda: main(["measure-check", str(m1), str(m2)])) == 0
        assert tracer.run_job(lambda: main(["calculus", str(a), "--fn", "product",
                                            "--require-monotone",
                                            "--out", str(tmp_path / "out.json")])) == 0
        assert tracer.run_job(round_trip).n_atoms() == 2
    finally:
        tracer.uninstall()
    capsys.readouterr()

    totals = tracer.totals()
    silent = [f"{module}.{attr}" for module, attr, span, counter in probes
              if (span is not None and totals.get(span + ":calls", 0) < 1)
              or (counter is not None and f"{module}.{attr}" not in counted)]
    # measure-check decides the lower-set inequality by one maximum flow and
    # no longer enumerates ideals; calculus writes through io.save_tuple,
    # which the tracer does not probe, so io.save_json records nothing and
    # the write's time goes to cli.unattributed_s. Only those two stay silent.
    assert silent == ["specorder.io.save_json", "specorder.measures.enumerate_downward_closed"]
