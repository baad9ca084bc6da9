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

from .core import (
    MachineConfig,
    PhaseCounters,
    checksum128,
    derive_seed,
    load_config,
    parse_config_text,
    validate_config,
)
from .harness import (
    INPUT_KINDS,
    GeneratedInput,
    InputSpec,
    SortResult,
    VerifyResult,
    generate_input,
    report_stats,
    run_experiment_redistribution,
    run_sort,
    verify_output,
)
from .merge import batch_merge, local_multiway_merge
from .net import all_to_all_v, exchange_pieces, gather_splitters
from .redistribute import (
    PlanError,
    Redistribution,
    SplitterMatrix,
    compute_splitters,
    external_all_to_all,
    moved_volume,
    plan_rounds,
)
from .runform import RunDescriptor, form_runs, internal_parallel_sort
from .selection import (
    DiskAccessor,
    MemoryAccessor,
    SelectionError,
    multiway_select,
    sampled_init,
    select_all_ranks,
)
from .striped import (
    StripedRun,
    build_prediction_sequence,
    naive_steps,
    prefetch_schedule,
    striped_merge_pass,
    striped_sort,
    verify_schedule,
)
from .vdisk import Cluster, DiskError, OutputLayout

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "DiskAccessor",
    "DiskError",
    "GeneratedInput",
    "INPUT_KINDS",
    "InputSpec",
    "MachineConfig",
    "MemoryAccessor",
    "OutputLayout",
    "PhaseCounters",
    "PlanError",
    "Redistribution",
    "RunDescriptor",
    "SelectionError",
    "SortResult",
    "SplitterMatrix",
    "StripedRun",
    "VerifyResult",
    "all_to_all_v",
    "batch_merge",
    "build_prediction_sequence",
    "checksum128",
    "compute_splitters",
    "derive_seed",
    "exchange_pieces",
    "external_all_to_all",
    "form_runs",
    "gather_splitters",
    "generate_input",
    "internal_parallel_sort",
    "load_config",
    "local_multiway_merge",
    "moved_volume",
    "multiway_select",
    "naive_steps",
    "parse_config_text",
    "plan_rounds",
    "prefetch_schedule",
    "report_stats",
    "run_experiment_redistribution",
    "run_sort",
    "sampled_init",
    "select_all_ranks",
    "striped_merge_pass",
    "striped_sort",
    "validate_config",
    "verify_output",
    "verify_schedule",
    "__version__",
]
