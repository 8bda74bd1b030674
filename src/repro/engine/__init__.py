"""Instrumented-execution substrate: tape VM, golden runs, fault injection.

This subpackage replaces the paper's LLVM/source-level instrumentation with a
straight-line SSA tape VM (see DESIGN.md §2 for the substitution argument).
"""

from .bitflip import (
    bits_for_dtype,
    flip_all_bits,
    flip_bits,
    injected_errors,
)
from .batch import (
    BatchReplayer,
    PropagationSink,
    ReplayBatch,
    lanes_for_budget,
    make_replayer,
)
from .classify import Outcome, OutputComparator, classify_batch, output_error
from .dataflow import (
    DataflowInfo,
    consumers_of,
    dataflow_info,
    forward_slice,
    forward_slice_sizes,
)
from .disasm import disassemble, disassemble_cfg, format_instruction
from .interpreter import GoldenTrace, golden_run
from .multibit import burst_corruptions, flip_bit_pairs, random_word_corruptions
from .program import ARITY, Opcode, Program, TraceBuilder, Val
from .transform import TransformResult, eliminate_dead, fold_constants

__all__ = [
    "ARITY",
    "BatchReplayer",
    "DataflowInfo",
    "GoldenTrace",
    "Opcode",
    "Outcome",
    "OutputComparator",
    "Program",
    "PropagationSink",
    "ReplayBatch",
    "TraceBuilder",
    "TransformResult",
    "Val",
    "bits_for_dtype",
    "burst_corruptions",
    "classify_batch",
    "consumers_of",
    "dataflow_info",
    "disassemble",
    "disassemble_cfg",
    "eliminate_dead",
    "flip_all_bits",
    "flip_bit_pairs",
    "fold_constants",
    "format_instruction",
    "flip_bits",
    "forward_slice",
    "forward_slice_sizes",
    "golden_run",
    "injected_errors",
    "lanes_for_budget",
    "make_replayer",
    "output_error",
    "random_word_corruptions",
]
