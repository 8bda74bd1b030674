"""Control-flow-general tape VM: CFG programs, loop replay, dataflow.

Layered on the straight-line engine: same opcode set and bit-flip model,
but programs are basic-block graphs with branches and loop back-edges, the
golden run records a block path, and corrupted lanes replay down their own
control paths under a deterministic ``max_steps`` hang guard.  See
DESIGN.md §13.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".builder": ("CfgBuilder", "CfgVal"),
    ".dataflow": (
        "ReachingDefinitions",
        "block_use_def",
        "edge_live_widths",
        "liveness",
        "reaching_definitions",
    ),
    ".interpreter": ("CfgGoldenTrace", "cfg_golden_run"),
    ".lower": ("lower_program", "lower_workload"),
    ".program": ("CfgBlock", "CfgProgram", "TermKind", "Terminator"),
    ".replay": ("CfgLaneReplayer", "CfgReplayBatch"),
    ".workload": ("CfgWorkload", "is_cfg_workload"),
})
