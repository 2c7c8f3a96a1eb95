"""The config schema: every key's JSON type is checked once, at parse time.

``WRONG`` holds wrong-typed values for every leaf of ``config.SCHEMA`` (a
string for a number, a float or a bool for an integer, a string for a list,
a wrong entry inside a list); each must fail in ``ExperimentConfig.parse``
with a ``ConfigurationError`` that names the key by its dotted path.
"""

import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from lsns.cli import main as cli_main
from lsns.config import SCHEMA, ExperimentConfig
from lsns.errors import ConfigurationError

from test_ensemble_cli import base_config

ROOT = Path(__file__).resolve().parent.parent

WRONG = {
    "schema_version": ["1", True],
    "run.nu": ["0.02"],
    "run.epsilon": ["0.25", None],
    "run.dt": ["x"],
    "run.t_end": [True],
    "run.m": [8.0, True, "8"],
    "run.dealias_cutoff": ["2", 2.0, True],
    "run.scheme": [1],
    "run.mollifier_kind": [1],
    "run.initial_condition.kind": [1],
    "run.initial_condition.amplitude": ["x"],
    "run.initial_condition.seed": [3.0, True],
    "run.initial_condition.smooth": ["0.1"],
    "run.initial_condition.path": [1],
    "noise.kind": [1],
    "noise.amplitude": ["0.3"],
    "noise.ratio": ["0.5"],
    "noise.max_k": ["8", 8.0, True],
    "noise.flatness": ["x"],
    "noise.coefficient_files": ["sigma.lsns", [1], None],
    "noise.tail_beyond_max_k": ["1"],
    "diagnostics.test_functions.name": [1],
    "diagnostics.test_functions.spatial.center": [5, "x", ["0.5", 0.5, 0.5]],
    "diagnostics.test_functions.spatial.exponent": [2.0, True],
    "diagnostics.test_functions.temporal.a": ["0.03125"],
    "diagnostics.test_functions.temporal.b": [False],
    "diagnostics.test_functions.temporal.ramp": ["x"],
    "diagnostics.events.kind": [1],
    "diagnostics.events.at": ["0.0"],
    "diagnostics.events.q": ["0.5"],
    "diagnostics.supermartingale.s": ["x"],
    "diagnostics.supermartingale.t": [[0.125]],
    "diagnostics.lei_xi": ["one", [1]],
    "diagnostics.vorticity.delta": ["0.1"],
    "diagnostics.dissipation.ell_values": ["x", ["0.25"], 0.25],
    "diagnostics.dissipation.alpha_kind": [1],
    "ensemble.paths": [3.0, True],
    "ensemble.seed": ["421", True],
    "ensemble.workers": ["2", 2.0],
    "output.directory": [1],
    "output.stride": ["2", 1.0],
    "output.save_snapshots": ["no", 0],
    "output.write_csv": [1],
}
# a block of the wrong JSON type, the null noise block among them
WRONG_BLOCKS = {
    "run": ["x"], "noise": [None, "off"], "diagnostics": [[]], "ensemble": [1],
    "output": [None], "run.initial_condition": ["taylor_green"],
    "diagnostics.test_functions": ["phi", [1]], "diagnostics.test_functions.spatial": [2],
    "diagnostics.events": [{"kind": "all"}], "diagnostics.supermartingale": [[0.0625, 0.125]],
    "diagnostics.vorticity": [0.5], "diagnostics.dissipation": [[0.25]],
}
CASES = [(key, val) for table in (WRONG, WRONG_BLOCKS) for key, vals in table.items()
         for val in vals]


def _leaves(schema, path=""):
    for key, sub in schema.items():
        sub_path = f"{path}.{key}".lstrip(".")
        entry = sub[0] if isinstance(sub, list) else sub
        if isinstance(entry, dict):
            yield from _leaves(entry, sub_path)
        else:
            yield sub_path


def _set(doc: dict, key: str, val) -> str:
    """Set the dotted key in doc (entry 0 of a list of blocks), creating the
    blocks on the way; returns the key's path as a parse error names it."""
    *blocks, last = key.split(".")
    where = []
    for name in blocks:
        doc = doc.setdefault(name, {})
        where.append(name)
        if isinstance(doc, list):
            doc, where[-1] = doc[0], f"{name}[0]"
    doc[last] = val
    return ".".join(where + [last])


def test_the_table_covers_every_schema_leaf():
    assert sorted(WRONG) == sorted(_leaves(SCHEMA))


@pytest.mark.parametrize("key,val", CASES, ids=[f"{k}={v!r}" for k, v in CASES])
def test_wrong_json_type_fails_at_parse_naming_its_key(tmp_path, key, val):
    doc = base_config(tmp_path)
    where = _set(doc, key, val)
    with pytest.raises(ConfigurationError, match=re.escape(where) + r"(\[0\])?: expected"):
        ExperimentConfig.parse(doc)


def test_cli_exits_2_on_wrong_json_types(tmp_path):
    for i, (key, val) in enumerate(CASES[::7]):
        doc = base_config(tmp_path)
        _set(doc, key, val)
        path = tmp_path / f"bad_{i}.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(cli_main, ["run", str(path)])
        assert res.exit_code == 2, (key, val, res.output)
        assert "configuration error" in res.output
    assert not (tmp_path / "out").exists()


def test_bad_mollifier_kinds_fail_at_parse(tmp_path):
    run = base_config(tmp_path)
    run["run"]["mollifier_kind"] = "foo"
    dr = base_config(tmp_path)
    dr["diagnostics"]["dissipation"] = {"ell_values": [0.25], "alpha_kind": "foo"}
    for i, (doc, key) in enumerate([(run, "mollifier_kind"), (dr, "alpha_kind")]):
        with pytest.raises(ConfigurationError, match=f"unknown {key} 'foo'"):
            ExperimentConfig.parse(doc)
        path = tmp_path / f"bad_{i}.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(cli_main, ["run", str(path)])
        assert res.exit_code == 2, res.output
    assert not (tmp_path / "out").exists()


def test_integers_for_floats_keep_digests_and_run_params():
    # float keys written as JSON integers: raw (and so both digests) keeps
    # them as given, the checked values and RunParams hold floats
    doc = base_config(Path("cfg"))
    doc["run"].update(t_end=1, epsilon=1)
    doc["run"]["initial_condition"]["amplitude"] = 1
    doc["diagnostics"]["supermartingale"] = {"s": 0, "t": 1}
    cfg = ExperimentConfig.parse(doc)
    assert cfg.raw["run"]["t_end"] == 1 and isinstance(cfg.raw["run"]["t_end"], int)
    assert cfg.digest() == "dd65d4125e7f5d47e7f43226baca2668a28f08568f0ca7491e3c7c62e4237389"
    assert cfg.results_digest() == (
        "e92405c5e48064ceaecac4cbb4d09bfcae5370f1db16aa61de898fb664edb2c8")
    p = cfg.run_params(0)
    for name, want in [("nu", 0.02), ("epsilon", 1.0), ("dt", 0.0625), ("t_end", 1.0)]:
        assert type(getattr(p, name)) is float and getattr(p, name) == want
    assert cfg.supermartingale_window() == (0.0, 1.0)


def test_retired_keys_stay_in_raw_and_leave_the_checked_view(tmp_path):
    doc = base_config(tmp_path)
    doc["diagnostics"]["dissipation"] = {"ell_values": [0.25], "quadrature": 16}
    cfg = ExperimentConfig.parse(doc)
    assert cfg.raw["diagnostics"]["dissipation"]["quadrature"] == 16
    assert cfg.doc["diagnostics"]["dissipation"] == {"ell_values": (0.25,)}


def test_readme_example_configuration_parses(tmp_path):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"### Example configuration\s*```json\n(.*?)```", text, re.DOTALL)
    doc = json.loads(block.group(1))
    doc["output"]["directory"] = str(tmp_path / "out")
    cfg = ExperimentConfig.parse(doc)
    assert cfg.raw == json.loads(json.dumps(doc))
    assert not (tmp_path / "out").exists()
