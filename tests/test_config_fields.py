"""Fuzz of the config reader with mutations drawn from its field table.

Each case takes one of four valid configs, which between them give every
row of ``chcontrol.cli._FIELDS`` a value that ``parse_config`` reads, and
changes one row: a value of the wrong type, a bool, null, a value out of
the row's range, or the key removed. ``parse_config`` must return or raise
a ``ConfigError`` whose message starts with that row's path, and must
raise when the row was read. The snapshot case mutates the bytes of
``initial.snapshots.phi``.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chcontrol as ch
from chcontrol.cli import _FIELDS, _REQUIRED, parse_config
from chcontrol.errors import ConfigError
from test_cli import TINY_CONFIG

FULL_SECTIONS = {
    "control": {"initial": "midpoint", "tau0": 0.125},
    "optimizer": {"max_outer_iters": 3, "grad_tol": 1e-3,
                  "armijo": {"c1": 1e-4, "backtrack": 0.5, "s0": 1.0,
                             "max_backtracks": 4}},
    "solver": {"newton_tol": 1e-11, "newton_max_iter": 20},
    "verification": {
        "checks": ["gradient", "mass"], "seed": 1, "tau": 0.125,
        "gradient": {"directions": 1, "deltas": [0.2, 1e-4], "slope_deltas": [0.2],
                     "check_delta": 1e-4, "tol": 1e-6},
        "duality": {"directions": 2, "tol": 1e-9},
        "lipschitz": {"pairs": 2, "magnitudes": [0.1, 0.01], "pair_spread_tol": 10.0,
                      "magnitude_spread_tol": 3.0},
        "mass": {"tol": 1e-10},
    },
}


def _variants(root):
    """Four valid configs; every row of the table is read in at least one."""
    g, tg = ch.Grid.line(32), ch.TimeGrid(0.25, 16)
    snaps = {}
    for name in ("mu", "phi", "sigma", "bound", "omega"):
        snaps[name] = str(root / f"{name}.fld")
        ch.write_snapshot(snaps[name], g, g.full(0.1))
    target = ch.Trajectory(g, tg, np.zeros((17, 3, 32)), ("mu", "phi", "sigma"))
    manifest = str(ch.write_trajectory(root / "target", target))

    base = copy.deepcopy(TINY_CONFIG)
    base.update(copy.deepcopy(FULL_SECTIONS))
    base["output_dir"] = str(root / "out")
    equilibrium = copy.deepcopy(base)
    equilibrium["cost"]["relaxation"] = {"gamma": 0.5, "eps": 0.1,
                                         "sigma_omega": {"constant": 0.2}}
    logarithmic = copy.deepcopy(base)
    logarithmic["model"]["potential"] = {"kind": "logarithmic", "lam": 2.0}
    logarithmic["model"]["proliferation"] = {"kind": "constant", "p0": 1.0}
    logarithmic["initial"] = {"preset": "random_interior", "amplitude": 0.1, "seed": 4}
    logarithmic["control"]["initial"] = 1.0
    front = copy.deepcopy(base)
    front["initial"] = {"preset": "tanh_front", "width": 0.1, "position": 0.5}
    files = copy.deepcopy(base)
    files["initial"] = {"snapshots": {k: snaps[k] for k in ("mu", "phi", "sigma")}}
    files["bounds"]["lower"] = snaps["bound"]
    files["cost"]["targets"] = {
        "phi_q": {"manifest": manifest, "component": "phi"},
        "sigma_q": {"manifest": manifest},
        "phi_omega": {"snapshot": snaps["omega"]},
    }
    files["cost"]["relaxation"] = {"gamma": 0.5, "eps": 0.1,
                                   "sigma_omega": {"snapshot": snaps["omega"]}}
    return [equilibrium, logarithmic, front, files]


def _invalid(kind, limit, default):
    """Values the row must reject."""
    list_kind = kind.endswith(" list")
    entry = kind[:-5] if list_kind else kind
    wrong_type = {"number": "x", "integer": "x", "positive": "x", "string": 5,
                  "choice": 5, "object": [1], "number or string": [1.0]}[entry]
    if entry == "positive":
        out_of_range = [0.0, -1.0]
    elif entry == "choice":
        out_of_range = ["no_such"]
    else:
        out_of_range = [] if limit is None else [limit - 1]
        if entry == "integer":
            out_of_range.append(2.5)
    if entry in ("number", "integer", "positive", "number or string"):
        out_of_range += [math.nan, math.inf, -math.inf]
    if entry in ("number", "positive", "number or string"):
        out_of_range.append(10**400)  # an integer literal with no float
    if list_kind:
        values = ["x", [True], []] + [[v] for v in out_of_range]
    else:
        values = [wrong_type, True] + out_of_range
    return values + ([] if default is None else [None])


def _locate(cfg, path):
    """(section, key) of ``path`` in ``cfg``; section is None if absent."""
    parent, _, key = path.rpartition(".")
    node = cfg
    for part in parent.split(".") if parent not in ("", "config") else []:
        node = node.get(part) if isinstance(node, dict) else None
    return (node if isinstance(node, dict) else None), key


def _cases(variants):
    """Row path -> the mutations of that row: (variant, op, value)."""
    cases = {}
    for index, cfg in enumerate(variants):
        for path, (kind, limit, default) in _FIELDS.items():
            section, key = _locate(cfg, path)
            if section is None:
                continue
            rows = cases.setdefault(path, [])
            rows += [(index, "set", value) for value in _invalid(kind, limit, default)]
            if default is _REQUIRED and key in section:
                rows.append((index, "delete", None))
    return cases


@pytest.fixture(scope="module")
def fuzz_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    variants = _variants(root)
    for cfg in variants:
        with open(root / "check.json", "w") as fh:
            json.dump(cfg, fh)
        parse_config(root / "check.json")
    return root, variants, _cases(variants)


def _parse(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    try:
        parse_config(path)
    except ConfigError as exc:
        return str(exc)
    return None


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_mutated_field_is_config_error_naming_it(fuzz_setup, data):
    root, variants, cases = fuzz_setup
    for path in sorted(cases):
        index, op, value = data.draw(st.sampled_from(cases[path]), label=path)
        cfg = copy.deepcopy(variants[index])
        section, key = _locate(cfg, path)
        read = key in section
        if op == "delete":
            del section[key]
        else:
            section[key] = value
        message = _parse(root / "mutated.json", cfg)
        # removing the only form of a union (initial.preset, *.constant)
        # leaves the union's own path to blame
        prefixes = (path + ": ",) + ((path.rpartition(".")[0] + ": ",)
                                     if op == "delete" else ())
        if message is None:
            assert not read, f"{op} {path} = {value!r} was accepted"
        else:
            assert message.startswith(prefixes), message
    top_level = data.draw(st.sampled_from([[], 5, "x", None, True]), label="config")
    assert _parse(root / "top.json", top_level).startswith("config: ")


@pytest.fixture(scope="module")
def snapshot_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshots")
    g = ch.Grid.line(32)
    paths = {}
    for name in ("mu", "phi", "sigma"):
        paths[name] = str(root / f"{name}.fld")
        ch.write_snapshot(paths[name], g, g.full(0.1))
    paths["phi"] = str(root / "mutated.fld")
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["initial"] = {"snapshots": paths}
    with open(root / "phi.fld", "rb") as fh:
        return root, cfg, fh.read()


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(cut=st.integers(min_value=0, max_value=32 + 8 * 32),
       splice=st.binary(max_size=12), keep_tail=st.booleans())
def test_mutated_snapshot_bytes_are_config_error(snapshot_setup, cut, splice, keep_tail):
    root, cfg, good = snapshot_setup
    tail = good[cut + len(splice):] if keep_tail else b""
    with open(cfg["initial"]["snapshots"]["phi"], "wb") as fh:
        fh.write(good[:cut] + splice + tail)
    message = _parse(root / "config.json", cfg)
    # non-finite values are reported once all three fields are read
    assert message is None or message.startswith(("initial.snapshots.phi: ", "initial: ")), \
        message

