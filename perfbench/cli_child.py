"""``python3 -m oclust`` with a speed probe; the CLI workload's subprocess.

    python3 perfbench/cli_child.py PROBE_JSON oclust INPUT.csv [options]

Runs the package's command line exactly as ``python3 -m oclust`` does, with
the probe of ``speed.py`` ticking after each trimming iteration, and writes
the probe's kernel time to PROBE_JSON when the command returns.
"""

import json
import runpy
import sys
from pathlib import Path

from oclust import trim
from speed import HOOK_SITE, SpeedProbe


def main() -> int:
    report = Path(sys.argv[1])
    del sys.argv[1]
    probe = SpeedProbe()
    probe.hook(trim, HOOK_SITE)
    probe.start()
    try:
        runpy.run_module("oclust", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    probe.stop()
    report.write_text(json.dumps(probe.report()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
