"""Rewrite ``replay.json``, the digests that ``tests/test_replay.py`` checks.

    PYTHONPATH=src python tests/golden/update_replay.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_replay import DIGESTS, digest, runs  # noqa: E402


def main() -> None:
    os.environ.pop("SQUAREOP_ASCII", None)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            digests = {key: digest((code, out, err))
                       for key, _, code, out, err in runs(Path(tmp))}
        finally:
            os.chdir(cwd)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS}")


if __name__ == "__main__":
    main()
