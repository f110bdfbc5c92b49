"""Pass-based static analysis of instantiated Beehive designs.

The paper's design-time tooling (section V-G) rejects broken
topologies before anything runs; the simulation kernel's idle skip
adds a contract of its own.  This package is one finding pipeline for
both:

- :mod:`repro.analysis.structural` — topology soundness (BHV1xx);
- :mod:`repro.analysis.deadlock` — channel-dependency deadlock over
  the *real* routing state: declared chains plus chains derived from
  the next-hop tables (BHV2xx);
- :mod:`repro.analysis.wake` — quiescence-contract verification
  (BHV3xx);
- :mod:`repro.analysis.dataflow` — destination-domain declarations vs
  the runtime routing state, covering data-dependent routing (BHV5xx).

A separate *dynamic* family, :mod:`repro.analysis.sanitize`, runs
bounded instrumented simulations (BHV4xx: idle-truthfulness, flit
conservation, determinism) through the same finding
pipeline — see :func:`repro.analysis.sanitize.analyze_dynamic` and
``python -m repro.tools.lint --sanitize``.

Entry points::

    from repro.analysis import analyze
    report = analyze(UdpEchoDesign())
    assert report.ok, report.render()

or, from a shell::

    python -m repro.tools.lint udp_echo --json
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis import dataflow as _dataflow_pass
from repro.analysis import deadlock as _deadlock_pass
from repro.analysis import structural as _structural_pass
from repro.analysis import wake as _wake_pass
from repro.analysis.deadlock import (
    DeadlockError,
    analyze_chains,
    assert_deadlock_free,
    build_dependency_graph,
    chain_link_sequence,
    derive_streaming_chains,
    witness_cycles,
)
from repro.analysis.findings import (
    CODES,
    ERROR,
    INFO,
    WARNING,
    AnalysisReport,
    Finding,
)
from repro.analysis.model import DesignModel, extract
from repro.analysis.sanitize import SANITIZE_PASSES, analyze_dynamic
from repro.analysis.structural import lint_spec

#: name -> pass callable (design-like -> list[Finding]), in run order.
PASSES = {
    "structural": _structural_pass.run,
    "deadlock": _deadlock_pass.run,
    "wake-contract": _wake_pass.run,
    "dataflow": _dataflow_pass.run,
}


def analyze(design: object, *, name: str | None = None,
            passes: Iterable[str] | None = None) -> AnalysisReport:
    """Run the requested passes (default: all) over ``design``."""
    model = extract(design, name=name)
    selected = list(PASSES) if passes is None else list(passes)
    unknown = [p for p in selected if p not in PASSES]
    if unknown:
        raise KeyError(f"unknown pass(es) {unknown}; "
                       f"available: {sorted(PASSES)}")
    report = AnalysisReport(target=model.name)
    for pass_name in selected:
        report.extend(PASSES[pass_name](model))
        report.passes_run.append(pass_name)
    return report


__all__ = [
    "CODES",
    "ERROR",
    "INFO",
    "PASSES",
    "SANITIZE_PASSES",
    "WARNING",
    "AnalysisReport",
    "DeadlockError",
    "DesignModel",
    "Finding",
    "analyze",
    "analyze_chains",
    "analyze_dynamic",
    "assert_deadlock_free",
    "build_dependency_graph",
    "chain_link_sequence",
    "derive_streaming_chains",
    "extract",
    "lint_spec",
    "witness_cycles",
]
