"""Fuzz of the config reader with mutations drawn from its field table.

Each case takes one of four valid configs, which between them give every
row of ``chcontrol.cli._FIELDS`` a value that ``parse_config`` reads, and
changes one row: a value of the wrong type, a bool, null, a value out of
the field's range (the row's limit, or ``OUT_OF_RANGE`` for the fields
that Grid, TimeGrid, Potential and Proliferation range), or the key
removed. ``parse_config`` must return or raise a ``ConfigError`` whose
message starts with that row's path, and must raise when the row was
read. A second fuzz adds a key that is no row to
every object row and to the root, which must raise a ``ConfigError``
naming ``<path>.<key>``. The snapshot case mutates the bytes of
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
from chcontrol.cli import _FIELDS, _REQUIRED, _UNIONS, parse_config, run
from chcontrol.errors import ConfigError
from test_cli import TINY_CONFIG

# values out of range for the fields whose rows give a type only: the
# range is Grid's, TimeGrid's, Potential's or Proliferation's
OUT_OF_RANGE = {
    "grid.n": [[2], [16, 16, 16]],
    "grid.extents": [[0.0], [-1.0], [1.0, 1.0]],
    "time.horizon": [0.0, -1.0],
    "time.steps": [0, -1],
    "model.potential.lam": [0.0, -1.0],
    "model.proliferation.p0": [-1.0],
    "model.proliferation.width": [0.0, -1.0],
}

FULL_SECTIONS = {
    "control": {"initial": "midpoint", "tau0": 0.125},
    "optimizer": {"max_outer_iters": 3, "grad_tol": 1e-3},
    "solver": {"newton_tol": 1e-11, "newton_max_iter": 20},
    "verification": {
        "checks": ["gradient", "mass"], "tau": 0.125,
        "gradient": {"directions": 1, "deltas": [0.2, 1e-4], "tol": 1e-6},
        "duality": {"directions": 2, "tol": 1e-9},
        "lipschitz": {"pairs": 2, "magnitudes": [0.1, 0.01]},
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


def _taken(union, path):
    """The branch of _UNIONS[path] that the object ``union`` takes."""
    return next(branch for branch in _UNIONS[path] if branch[0] in union
                and branch[1] in (None, union[branch[0]]))


def test_union_table_matches_the_rows(tmp_path):
    # each union's branches read exactly the rows under it, and the fuzz's
    # variants take every branch
    variants = _variants(tmp_path)
    for path, branches in _UNIONS.items():
        rows = {row.rpartition(".")[2] for row in _FIELDS if row.rpartition(".")[0] == path}
        reads = [{key, *others} for key, _, others in branches]
        assert set().union(*reads) == rows, path
        taken = {_taken(_object(cfg, path), path) for cfg in variants
                 if _object(cfg, path) is not None}
        assert taken == set(branches), path


def _invalid(kind, limit, default):
    """Values the row must reject."""
    list_kind = kind.endswith((" list", " set"))
    entry = kind.rpartition(" ")[0] if list_kind else kind
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
    if entry in ("number", "integer", "positive", "number or string"):
        out_of_range.append(10**400)  # an integer literal with no float
    if list_kind:
        values = ["x", [True], []] + [[v] for v in out_of_range]
        if kind.endswith(" set"):
            # a repeated entry, each valid on its own
            valid = {"positive": 1.0}[entry]
            values.append([valid, valid])
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
            values = _invalid(kind, limit, default) + OUT_OF_RANGE.get(path, [])
            rows += [(index, "set", value) for value in values]
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


@pytest.mark.parametrize("path, value", [
    (path, value) for path, values in OUT_OF_RANGE.items() for value in values])
def test_out_of_range_field_exits_2_naming_it(tmp_path, capsys, path, value):
    # every value of the table, not the fuzz's sample of it
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["model"]["potential"] = {"kind": "logarithmic", "lam": 2.0}
    section, key = _locate(cfg, path)
    section[key] = value
    with open(tmp_path / "config.json", "w") as fh:
        json.dump(cfg, fh)
    assert run(tmp_path / "config.json", out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


def _object(cfg, path):
    """The object at row ``path`` of ``cfg`` (the root for "config"), or
    None if the variant holds none there."""
    if path == "config":
        return cfg
    section, key = _locate(cfg, path)
    node = None if section is None else section.get(key)
    return node if isinstance(node, dict) else None


def _is_row(path, key):
    return (f"{path}.{key}" in _FIELDS
            or (path == "config" and key in _FIELDS))


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_unknown_key_is_config_error_naming_it(fuzz_setup, data):
    root, variants, _ = fuzz_setup
    objects = ["config"] + [path for path, row in _FIELDS.items() if row[0] == "object"]
    for path in objects:
        holders = [i for i, cfg in enumerate(variants) if _object(cfg, path) is not None]
        assert holders, f"no variant holds {path}"
        cfg = copy.deepcopy(variants[data.draw(st.sampled_from(holders), label=path)])
        key = data.draw(st.text(max_size=8).filter(lambda k: not _is_row(path, k)),
                        label=f"{path} key")
        _object(cfg, path)[key] = 1
        assert _parse(root / "unknown.json", cfg) == f"{path}.{key}: unknown field"


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
    assert message is None or message.startswith("initial.snapshots.phi: "), message

