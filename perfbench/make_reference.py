"""Regenerate the `figures` reference CSVs and their sha256 digests.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter figure output, and say in
the change which digits moved and why; the benchmark compares every
later run against what this writes to perfbench/reference/.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from worker import FIGURE_IDS, REFERENCE, SRC, write_figure


def main() -> int:
    sys.path.insert(0, str(SRC))
    REFERENCE.mkdir(exist_ok=True)
    for old in REFERENCE.glob("*.csv"):
        old.unlink()
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fid in FIGURE_IDS:
            write_figure(fid, tmp)
            digests[fid] = {}
            for path in sorted(Path(tmp).glob(f"{fid}*.csv")):
                data = path.read_bytes()
                (REFERENCE / path.name).write_bytes(data)
                digests[fid][path.name] = hashlib.sha256(data).hexdigest()
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    (REFERENCE / "digests.json").write_text(text, encoding="utf-8")
    print(f"wrote {sum(map(len, digests.values()))} CSVs to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
