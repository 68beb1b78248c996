"""Each benchmark workload, run in-process at the default seed, against the
reference outputs recorded under perfbench/reference/.

This uses perfbench's own checks, read-only: a driver whose outputs drift past
a reference tolerance fails here before the benchmark reports it.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from modspec.harness import experiments
from modspec.harness.config import config_from_dict

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_its_reference(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    cfg = config_from_dict(wl.config(workloads.DEFAULT_SEED))
    csv_path, json_path = getattr(experiments, wl.driver)(cfg).write(tmp_path)
    csv_text = csv_path.read_text(encoding="utf-8")
    criteria = json.loads(json_path.read_text(encoding="utf-8"))["criteria"]
    assert workloads.output_problems(csv_text, criteria) == []
    ref = workloads.load_reference(wl)
    assert workloads.reference_problems(wl, csv_text, criteria, ref) == []
