"""repro — fault tolerance boundary analysis through error propagation.

A from-scratch Python reproduction of *"Understanding a Program's Resiliency
Through Error Propagation"* (Li et al., PPoPP 2021): an instrumented tape VM
substrate with single-bit-flip fault injection, HPC benchmark kernels (CG,
LU, FFT, stencil, matmul), and the paper's fault-tolerance-boundary method —
Algorithm 1 inference from masked-experiment propagation data, the SDC
filter operation, adaptive progressive sampling, and the precision / recall
/ uncertainty self-verification metrics.

Quickstart::

    from repro import core, kernels, run_campaign

    wl = kernels.build("cg", n=16)
    result = run_campaign(wl, mode="monte_carlo", sampling_rate=0.01, seed=0)
    predictor = core.BoundaryPredictor(wl.trace)
    print(predictor.predicted_sdc_ratio(result.boundary))
"""

__version__ = "1.2.0"

# Every name below resolves on first use (PEP 562): importing ``repro``
# loads no subpackage, so each CLI command pays only for its own layers.
from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".compose": ("ComposeConfig", "CompositionalCampaignResult"),
    ".core": (
        "BoundaryPredictor",
        "CampaignConfig",
        "CampaignResult",
        "FaultToleranceBoundary",
        "ProgressiveConfig",
        "evaluate_boundary",
        "exhaustive_boundary",
        "infer_boundary",
        "make_replayer",
        "run_campaign",
    ),
    ".engine": ("Outcome", "TraceBuilder", "golden_run"),
    ".kernels": ("Workload", "build"),
})
__all__ += ["__version__", "analysis", "compose", "core", "engine", "io",
            "kernels", "obs", "parallel", "serve"]
