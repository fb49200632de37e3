#!/usr/bin/env python3
"""Run every verification suite: ``fanolines suites`` under the script's name.

The options, the output and the exit codes are the subcommand's; see
``fanolines suites --help``.

    python3 scripts/run_suites.py --nmax 15 --degmax 4
    python3 scripts/run_suites.py --json-out reports.json
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fanolines import cli

if __name__ == "__main__":
    sys.exit(cli.main(["suites", *sys.argv[1:]]))
