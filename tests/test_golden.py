"""Every CLI report, exit code and stderr line matches its golden digest.

`tests/golden/cli_reports.txt` holds one digest line per input, written by
`tests/golden/regen.py`; this test recomputes every line in process.
"""
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).with_name("golden") / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_cli_reports_match_their_digests():
    kept = regen.GOLDEN.read_text().splitlines()
    lines, errs = regen.compute()
    assert len(lines) == len(kept)
    changed = [(old, new, errs[new]) for old, new in zip(kept, lines) if old != new]
    assert not changed, changed[:5]
