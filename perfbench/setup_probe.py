"""Set-up work a fresh interpreter does before its first run.

Usage: python3 setup_probe.py <src dir> <config.json>...

Imports specreg from <src dir> and loads and validates every config with
ExperimentConfig.from_json_file.  run.py times whole launches of this
script; it prints nothing and exits 0 on success.
"""

import sys

sys.path.insert(0, sys.argv[1])

from specreg.experiments import ExperimentConfig  # noqa: E402

for path in sys.argv[2:]:
    ExperimentConfig.from_json_file(path)
