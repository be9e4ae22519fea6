"""Record each workload's completion round at a range of seeds.

Usage, from the repository root::

    python3 perfbench/record_expected.py FIRST_SEED LAST_SEED

Runs every workload once per seed, untraced, and merges the completion
rounds into ``perfbench/expected.json``, which ``run.py`` checks every run
against.  The benchmark itself never writes that file: re-record only for a
change that is meant to alter behaviour.  A pure performance change must
leave every recorded round as it is.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED, _spawn
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    recorded = json.loads(EXPECTED.read_text())
    for name, workload in WORKLOADS.items():
        table = recorded.setdefault(name, {})
        for seed in range(first, last + 1):
            report = _spawn("run", name, seed)
            if report["correct"] is not True or report["engine"] != workload.expected_engine:
                raise SystemExit(f"{name} seed {seed}: not a correct {workload.expected_engine} run")
            table[str(seed)] = report["completion_rounds"]
            print(f"{name} seed {seed}: {report['completion_rounds']} rounds", flush=True)
        recorded[name] = dict(sorted(table.items(), key=lambda item: int(item[0])))
    EXPECTED.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
