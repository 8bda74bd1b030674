"""Figure 2 — the error-propagation curve and the §3.3 inference principle.

Fig. 2 illustrates the method's core move: inject at instruction ``i``,
observe a masked outcome, record the deviation ``Δe`` the corruption
caused at each later instruction ``k``, and *infer* that injecting ``Δe``
at ``k`` directly would also be masked ("experiment B is the same or
milder than experiment A").

This bench does what the figure can only draw:

1. renders the propagation curve of real masked experiments on CG, and
2. **tests the inference empirically** — for each masked experiment it
   re-injects the recorded ``±Δe`` at a spread of downstream sites
   (using the continuous-value replay) and measures how often the outcome
   really is masked.  The paper claims "high probability"; the bench
   reports the measured rate.
"""

import numpy as np
from paperconfig import write_result

from repro.core import SampleSpace
from repro.core.reporting import format_table, sparkline
from repro.engine import BatchReplayer, Outcome, classify_batch
from tests.helpers import SinkStream


def compute_fig2(paper_workloads):
    wl = paper_workloads["CG"]
    prog = wl.program
    trace = wl.trace
    rep = BatchReplayer(trace)
    space = SampleSpace.of_program(prog)
    rng = np.random.default_rng(6)

    curves = []
    checks_total, checks_masked = 0, 0
    attempts = 0
    while len(curves) < 8 and attempts < 200:
        attempts += 1
        site = int(rng.choice(prog.site_indices[: prog.n_sites // 2]))
        bit = int(rng.integers(0, prog.bits_per_site))
        cap = SinkStream()
        batch = rep.replay(np.array([site]), np.array([bit]), sink=cap)
        first, dev, *_ = cap.assemble(len(prog))
        diff = dev[:, 0]
        outcome = classify_batch(batch, wl.comparator)[0]
        if outcome != int(Outcome.MASKED):
            continue
        inj_err = float(batch.injected_errors[0])
        if inj_err == 0.0:
            continue  # sign flip of zero: nothing propagates
        curves.append((site, bit, inj_err, diff))

        # Empirical §3.3 check: re-inject the recorded deviations at
        # downstream sites and classify.
        downstream = np.flatnonzero(diff > 0)
        if downstream.size == 0:
            continue
        picks = rng.choice(downstream,
                           size=min(24, downstream.size), replace=False)
        instrs = picks + first
        site_mask = prog.is_site[instrs]
        instrs = instrs[site_mask]
        if instrs.size == 0:
            continue
        deltas = diff[instrs - first]
        golden_vals = trace.values[instrs].astype(np.float64)
        for sign in (+1.0, -1.0):
            vals = (golden_vals + sign * deltas).astype(prog.dtype)
            b2 = rep.replay_values(instrs, vals)
            out2 = classify_batch(b2, wl.comparator)
            checks_total += out2.size
            checks_masked += int((out2 == int(Outcome.MASKED)).sum())

    inference_validity = checks_masked / checks_total if checks_total else 1.0
    return curves, inference_validity, checks_total


def test_fig2_propagation_and_inference_principle(benchmark,
                                                  paper_workloads):
    curves, validity, n_checks = benchmark.pedantic(
        compute_fig2, args=(paper_workloads,), rounds=1, iterations=1)

    rows = []
    lines = []
    for site, bit, inj_err, diff in curves:
        touched = int((diff > 0).sum())
        rows.append([site, bit, f"{inj_err:.3e}",
                     f"{np.nanmax(diff):.3e}", touched])
        lines.append(f"  inject@{site:5d} bit {bit:2d}  "
                     f"|{sparkline(np.log10(np.maximum(diff, 1e-30)))}|")
    text = (format_table(
        ["site", "bit", "injected Δ", "max propagated Δ",
         "instrs touched"], rows,
        title=("Fig. 2 (CG): propagation curves of masked experiments "
               f"(log10 deviation shape below); §3.3 inference verified "
               f"empirically on {n_checks} re-injections: "
               f"{validity:.1%} masked"))
        + "\n" + "\n".join(lines))
    write_result("fig2", text)

    assert len(curves) >= 4
    # every masked experiment propagated somewhere (else it teaches nothing)
    assert any((diff > 0).sum() > 1 for *_, diff in curves)
    # the paper's "high probability" claim — the inference holds for the
    # overwhelming majority of re-injected deviations
    assert validity > 0.9
