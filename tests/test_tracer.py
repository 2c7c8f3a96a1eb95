"""The benchmark's tracer wraps lsns functions by name from outside ``src/``.

These checks keep a refactor from silently dropping a traced layer: every
target the tracer names must still resolve, and each EM step must still run
its drift through the module attribute ``integrate.drift_and_pressure``.
"""

import importlib
import importlib.util
from pathlib import Path

import lsns.ensemble  # noqa: F401  (imports every module the tracer wraps)
from lsns.integrate import RunParams, Workspace, em_path
from lsns.noise import make_noise_model
from lsns.spectral import Grid

from helpers import taylor_green


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench.tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    tracer = _tracer_module()
    for _, modname, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    for _, modname, clsname, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert attr in cls.__dict__, (clsname, attr)  # rebound on the class itself


def test_every_traced_step_runs_a_traced_drift():
    tracer = _tracer_module()
    g = Grid(8)
    p = RunParams(nu=0.02, epsilon=0.25, dt=1.0 / 16, t_end=0.125, grid=g, seed=3)
    noise = make_noise_model(g, "additive", amplitude=0.3, max_k=8)
    with tracer.Tracer() as tr:
        for _ in em_path(p, taylor_green(g, 0.6), noise, Workspace(p, noise)):
            pass
    names = [s[0] for s in tr.spans]
    assert names.count("integrate.step") == 2
    assert names.count("integrate.drift_and_pressure") == names.count("integrate.step")
