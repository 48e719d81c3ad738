"""What every simulated run imports stays light.

``numpy`` costs ~100 ms of start-up and ~12 MiB of resident memory, and
only the payload synthesizer (``daq.generators.LArTpcWaveformSynth``)
computes with it; no testbed, fleet or incast run builds one. Checked in a fresh interpreter so nothing this test session
imported earlier can mask a regression.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_testbeds_do_not_import_numpy():
    probe = (
        "import sys\n"
        "import repro.dataplane, repro.fleet, repro.integration.incast\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": str(SRC)}, timeout=60
    )
    assert done.returncode == 0, "importing a testbed pulled numpy in"
