"""Check the heavy rows of the golden CLI table, which Tier-1 leaves out:
each takes seconds (``tcount 9999991 --method all`` the most, about 2.5 s on
a 2-core VM).  Run from the repository root:

    PYTHONPATH=src python tests/golden_heavy.py

Prints one line per row, with its time and md5 prefixes, and exits 1 if any
row differs from the table.  A row's ``env`` is set for its run alone.
pytest does not collect this file.
"""

import os
import pathlib
import sys
import time
from unittest.mock import patch

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from test_golden_cli import expected, rows, run_row  # noqa: E402


def main() -> int:
    os.environ.pop("CLEANTRI_SIEVE_MEMORY", None)
    failed = 0
    for row in rows(heavy=True):
        start = time.perf_counter()
        with patch.dict(os.environ, row.get("env", {})):
            got = run_row(row["argv"])
        ok = got == expected(row)
        failed += not ok
        print(f"{'ok' if ok else 'FAIL'} {time.perf_counter() - start:6.2f} s exit {got['exit']}"
              f" stdout {got['stdout_md5'][:8]} stderr {got['stderr_md5'][:8]}"
              f"  {' '.join(row['argv'])}")
        if not ok:
            print(f"  got {got}")
    print(f"{failed} of {len(rows(heavy=True))} heavy rows differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
