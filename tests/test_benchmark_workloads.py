"""One pass of each workload in perfbench/workloads.py, at seed 1.

The benchmark calls the CLI's flags, the loaders and writers, training and
the grid by name; a change that breaks one of those calls fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_pass_of_each_workload_has_no_failure(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    done = workload.run_pass(workload.setup(1, tmp_path))
    assert done.failed == 0, done.problems
    assert done.attempted == workload.operations
