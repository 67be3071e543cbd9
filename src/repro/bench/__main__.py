"""Run every experiment and print every table: ``python -m repro.bench``.

The same run as ``python -m repro bench all``: one registry
(:data:`repro.__main__._EXPERIMENT_MODULES`), and ``--smoke`` /
``--faults`` pass straight through.
"""

from __future__ import annotations

import sys

from repro.__main__ import main as cli_main


def main() -> int:
    """Run all experiments in registry order."""
    return cli_main(["bench", "all", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
