"""Quiescence-contract verification (BHV3xx).

The kernel (:mod:`repro.sim.kernel`) jumps the clock over a stretch
only when every component reports ``is_idle()``, and lands on the
earliest ``next_event_cycle()``.  Lost wakeups cannot happen under
that rule, but the contract itself must still be implemented
consistently, so this pass turns it into lint findings:

- ``next_event_cycle()`` without ``is_idle()`` is never consulted;
- a component that consumes FIFOs but has no contract at all is never
  idle, so the design it sits in can never jump the clock;
- ``is_idle()`` must return a bool without raising (probed once; the
  probe is side-effect-free by contract).
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.model import extract


def _name_of(component: object) -> str:
    name = getattr(component, "name", None)
    if name:
        return str(name)
    coord = getattr(component, "coord", None)
    if coord is not None:
        return f"{type(component).__name__}@{coord}"
    return type(component).__name__


def _probe(component: object) -> Finding | None:
    """Call ``is_idle()`` defensively; a finding if it misbehaves."""
    name = _name_of(component)
    try:
        idle = component.is_idle()
    except Exception as error:  # noqa: BLE001 - lint must not crash
        return Finding(
            "BHV304",
            f"is_idle() raised {type(error).__name__}: {error}",
            location=name)
    if not isinstance(idle, bool):
        return Finding(
            "BHV304",
            f"is_idle() returned {idle!r} ({type(idle).__name__}), "
            "expected bool",
            location=name)
    return None


def run(design: object) -> list[Finding]:
    """The BHV3xx lint pass over an instantiated design."""
    model = extract(design)
    findings: list[Finding] = []
    for component in model.components():
        name = _name_of(component)
        if callable(getattr(component, "is_idle", None)):
            finding = _probe(component)
            if finding is not None:
                findings.append(finding)
            continue
        if callable(getattr(component, "next_event_cycle", None)):
            findings.append(Finding(
                "BHV303",
                "next_event_cycle() is implemented but is_idle() "
                "is not; the kernel never consults the timer",
                location=name))
        if model.consumed_fifos(component):
            findings.append(Finding(
                "BHV305",
                f"{type(component).__name__} has no quiescence "
                "contract; it is never idle, so the design never "
                "skips idle cycles",
                location=name,
                hint="implement is_idle()/next_event_cycle() to let "
                     "the clock jump idle stretches"))
    return findings
