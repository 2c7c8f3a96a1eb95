"""Binary snapshot format and trajectory persistence.

Snapshot layout (little-endian, bit-exact across platforms):

    magic   4 bytes  b"LSNS"
    version u32      format version (currently 1)
    m       u32      modes per axis
    kind    u8       0 = vector field (3, M, M, M), 1 = scalar field (M, M, M)
    time    f64      simulation time of the snapshot
    data    complex128 coefficient array, row-major (C order), numpy fftn
            frequency ordering

A trajectory directory holds one state snapshot per stored step plus
``manifest.json`` with the run parameters, stride, step count and per-file
SHA-256 checksums. A stored state's pressure is not written: replay
computes it from the state. Pressure snapshots that older directories
carry are ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .integrate import RunParams, Trajectory
from .spectral import Grid, ScalarField, SpectralField

MAGIC = b"LSNS"
VERSION = 1
_HEADER = struct.Struct("<4sIIBd")


def write_snapshot(path, field, time: float):
    kind = 0 if isinstance(field, SpectralField) else 1
    m = field.grid.m
    data = np.ascontiguousarray(field.coeffs, dtype="<c16")
    blob = _HEADER.pack(MAGIC, VERSION, m, kind, float(time)) + data.tobytes()
    Path(path).write_bytes(blob)


def read_snapshot(path, grid: Grid | None = None):
    try:
        blob = Path(path).read_bytes()
    except OSError as err:
        raise ConfigurationError(f"{path}: cannot read snapshot ({err.strerror})") from None
    if len(blob) < _HEADER.size or blob[:4] != MAGIC:
        raise ConfigurationError(f"{path}: not an LSNS snapshot")
    _, version, m, kind, time = _HEADER.unpack_from(blob, 0)
    if version != VERSION:
        raise ConfigurationError(f"{path}: unsupported snapshot version {version}")
    shape = (3, m, m, m) if kind == 0 else (m, m, m)
    if len(blob) != _HEADER.size + 16 * int(np.prod(shape)):
        raise ConfigurationError(
            f"{path}: {len(blob) - _HEADER.size} data bytes, header says {shape} complex128")
    data = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size).reshape(shape).copy()
    g = grid if grid is not None else Grid(m)
    if g.m != m:
        raise ConfigurationError(f"{path}: snapshot grid M={m} does not match M={g.m}")
    field = SpectralField(g, data) if kind == 0 else ScalarField(g, data)
    return field, time


def _sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def save_trajectory(traj: Trajectory, directory, run_config: dict | None = None):
    """Persist the states and a manifest; returns the manifest path."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    p = traj.params
    files = {}
    for step, u in zip(traj.stored_steps, traj.states):
        name = f"state_{step:06d}.lsns"
        write_snapshot(d / name, u, step * p.dt)
        files[name] = _sha256(d / name)
    manifest = {
        "format_version": VERSION,
        "params": {
            "nu": p.nu, "epsilon": p.epsilon, "dt": p.dt, "t_end": p.t_end,
            "m": p.grid.m, "dealias_cutoff": p.grid.dealias_cutoff,
            "seed": p.seed, "path_id": p.path_id, "scheme": p.scheme,
            "mollifier_kind": p.mollifier_kind, "stride": p.stride,
        },
        "step_count": p.n_steps,
        "stored_steps": traj.stored_steps,
        "checksums": files,
        "run_config": run_config,
    }
    mpath = d / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return mpath


def load_trajectory(directory, noise=None, verify: bool = True) -> Trajectory:
    d = Path(directory)
    manifest = json.loads((d / "manifest.json").read_text())
    pm = manifest["params"]
    grid = Grid(pm["m"], pm["dealias_cutoff"])
    params = RunParams(
        nu=pm["nu"], epsilon=pm["epsilon"], dt=pm["dt"], t_end=pm["t_end"],
        grid=grid, seed=pm["seed"], path_id=pm["path_id"], scheme=pm["scheme"],
        mollifier_kind=pm["mollifier_kind"], stride=pm["stride"],
    )
    states = []
    for step in manifest["stored_steps"]:
        name = f"state_{step:06d}.lsns"
        states.append(read_snapshot(d / name, grid)[0])  # a missing file is a ConfigurationError
        if verify and _sha256(d / name) != manifest["checksums"][name]:
            raise ConfigurationError(f"{name}: checksum mismatch")
    return Trajectory(params, noise, states, list(manifest["stored_steps"]))


def write_csv(path, columns, rows):
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow(row)


def atomic_write_json(path, payload: dict):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)
