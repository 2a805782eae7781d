"""Every benchmark workload config (perfbench/workloads.py) parses: a field
the program drops while a workload still sets it would fail every
benchmark pass with exit 2."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from chcontrol.cli import parse_config

_ROOT = Path(__file__).resolve().parents[1]
_WORKLOADS = _ROOT / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through the module's entry here
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


@pytest.mark.parametrize("seed", [0, 1])
def test_workload_configs_parse(tmp_path, workloads, seed):
    assert workloads
    for name, workload in workloads.items():
        cfg = workload.make_config(_ROOT, seed)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        parsed = parse_config(path)
        assert parsed.pipeline == cfg["pipeline"], name
