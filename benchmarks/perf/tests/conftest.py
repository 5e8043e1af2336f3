"""Make the harness (package ``perf``) and the program importable."""

import pathlib
import sys

PERF = pathlib.Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
for path in (str(ROOT / "src"), str(PERF.parent)):
    if path not in sys.path:
        sys.path.insert(0, path)
