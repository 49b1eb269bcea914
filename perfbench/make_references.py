"""Write references/<workload>.json: the outcome of every config per input seed.

Usage (from the repository root):

    python3 perfbench/make_references.py [workload ...]

Runs each workload's configs once per input seed with the checked-out
package and records exit code, verdict names and pass flags, rows and
fit value.  Configs whose outcome is the same for every input seed are
stored once under "any_seed".  Regenerate only on a commit whose
outputs are known to be right, since run.py treats these as the truth.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys

import harness


def main(argv) -> int:
    harness.pin_environment()
    cli = harness.import_specreg()
    from workloads import INPUT_SEEDS, WORKLOADS

    names = argv or sorted(WORKLOADS)
    harness.REFERENCES.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        by_seed = {}
        for seed in range(INPUT_SEEDS):
            work = harness.WORK / f"references-{name}-{seed}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                by_seed[str(seed)] = {
                    path.stem: harness.outcome(path, harness.run_config(cli, path))
                    for path in workload.write_configs(work, seed)
                }
            finally:
                shutil.rmtree(work)
        first = by_seed["0"]
        shared = {
            cfg: out for cfg, out in first.items()
            if all(seeded[cfg] == out for seeded in by_seed.values())
        }
        data = {
            "any_seed": shared,
            "by_seed": {
                seed: {cfg: out for cfg, out in outs.items() if cfg not in shared}
                for seed, outs in by_seed.items()
            },
        }
        path = harness.REFERENCES / f"{name}.json"
        text = json.dumps(data, indent=1, sort_keys=True)
        # one line per innermost list keeps a row on a line
        text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                      lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
        path.write_text(text + "\n")
        print(f"{path}: {len(shared)} seed-independent configs, "
              f"{len(first) - len(shared)} per seed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
