"""Instrumented-execution substrate: tape VM, golden runs, fault injection.

This subpackage replaces the paper's LLVM/source-level instrumentation with a
straight-line SSA tape VM (see DESIGN.md §2 for the substitution argument).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".batch": (
        "BatchReplayer",
        "PropagationSink",
        "ReplayBatch",
        "lanes_for_budget",
        "make_replayer",
    ),
    ".bitflip": (
        "bits_for_dtype",
        "flip_all_bits",
        "flip_bits",
        "injected_errors",
    ),
    ".classify": (
        "Outcome",
        "OutputComparator",
        "classify_batch",
        "output_error",
    ),
    ".dataflow": (
        "DataflowInfo",
        "consumers_of",
        "dataflow_info",
        "forward_slice",
        "forward_slice_sizes",
    ),
    ".disasm": ("disassemble", "disassemble_cfg", "format_instruction"),
    ".interpreter": ("GoldenTrace", "golden_run"),
    ".multibit": (
        "burst_corruptions",
        "flip_bit_pairs",
        "random_word_corruptions",
    ),
    ".program": ("ARITY", "Opcode", "Program", "TraceBuilder", "Val"),
    ".transform": ("TransformResult", "eliminate_dead", "fold_constants"),
})
