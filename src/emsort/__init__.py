"""Deterministic simulator of a distributed external-memory sorting cluster.

Two engines sort N fixed-size elements spread over P processors with D
disks each, counting every block transfer and every element shipped
between processors:

* the rank-splitting engine — randomized run formation, exact multiway
  splitting at the ranks t*N/P, a budgeted external all-to-all, and one
  local multiway merge per processor;
* the striped engine — runs striped over all disks, merged along a
  prediction sequence with a duality-derived prefetch schedule.
"""

from .core import MachineConfig
from .harness import (
    InputSpec,
    generate_input,
    report_stats,
    run_sort,
    verify_output,
)
from .net import ProtocolError
from .redistribute import PlanError
from .selection import SelectionError
from .vdisk import Cluster, DiskError

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "DiskError",
    "InputSpec",
    "MachineConfig",
    "PlanError",
    "ProtocolError",
    "SelectionError",
    "generate_input",
    "report_stats",
    "run_sort",
    "verify_output",
    "__version__",
]
