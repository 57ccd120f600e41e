"""Rewrite ``replay.json``, the digests that ``tests/test_replay.py`` checks.

    PYTHONPATH=src python tests/golden/update_replay.py
    PYTHONPATH=src python tests/golden/update_replay.py --check

With ``--check`` nothing is written: each run whose digest differs from the
file's, including a run that only one side has, is named, and the exit code
is 1 if there is any.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_replay import DIGESTS, digest, runs  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the file instead of rewriting it")
    args = parser.parse_args(argv)
    os.environ.pop("SQUAREOP_ASCII", None)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            digests = {key: digest((code, out, err))
                       for key, _, code, out, err in runs(Path(tmp))}
        finally:
            os.chdir(cwd)
    if args.check:
        expected = json.loads(DIGESTS.read_text())
        changed = sorted(key for key in digests.keys() | expected.keys()
                         if digests.get(key) != expected.get(key))
        for key in changed:
            print(f"changed: {key}")
        if changed:
            return 1
        print(f"{len(digests)} digests unchanged")
        return 0
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
