"""Golden digests of the differential scenarios.

Each scenario of ``tests/test_kernel_equivalence.py`` is run once,
untraced, on the default path (``run`` drive, flat mesh, flat tiles),
and its fingerprint — every egress frame with its emit cycle, the full
``design_counters`` and the per-port and per-link flit ledger — is
reduced to one crc32.  ``tests/data/golden_digests.json`` pins them, so
a change that alters any simulated result fails tier-1 however many
engines agree with each other.

Re-record (only when a change is *meant* to alter simulated results)::

    PYTHONPATH=src python -m tests.golden
"""

import json
import zlib
from pathlib import Path

from repro.noc.message import reset_id_counters

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"


def digest(fingerprint: dict) -> str:
    """crc32 of a fingerprint's canonical text, as 8 hex digits."""
    return f"{zlib.crc32(repr(fingerprint).encode()):08x}"


def scenario_digest(scenario) -> str:
    reset_id_counters()
    return digest(scenario("flat", "flat", traced=False))


def load() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())["digests"]


def record() -> dict[str, str]:
    from tests.test_kernel_equivalence import SCENARIOS
    digests = {name: scenario_digest(scenario)
               for name, scenario in SCENARIOS.items()}
    GOLDEN.write_text(json.dumps({
        "about": "crc32 of each tests/test_kernel_equivalence.py "
                 "scenario's untraced fingerprint on the default path; "
                 "see tests/golden.py",
        "digests": digests,
    }, indent=2) + "\n")
    return digests


if __name__ == "__main__":
    for name, value in record().items():
        print(f"{name:<22} {value}")
