"""Guards that keep the user-facing docs in step with the code."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: A ``KH_CORE_*`` environment-variable name (no trailing underscore, so a
#: prefix mentioned in prose does not count as a knob).
KNOB = re.compile(r"KH_CORE_[A-Z0-9_]*[A-Z0-9]")


def _knobs(paths):
    names = set()
    for path in paths:
        names.update(KNOB.findall(path.read_text(encoding="utf-8")))
    # KH_CORE_BENCH_* steer the benchmark suite, not the library.
    return {name for name in names if not name.startswith("KH_CORE_BENCH_")}


def test_documented_env_knobs_match_the_code():
    in_code = _knobs(sorted((ROOT / "src" / "repro").rglob("*.py")))
    in_docs = _knobs(sorted((ROOT / "docs").glob("*.md"))
                     + [ROOT / "README.md"])
    assert in_code, "no KH_CORE_* knobs found under src/repro"
    assert in_docs == in_code, (
        f"undocumented: {sorted(in_code - in_docs)}; "
        f"documented but gone from the code: {sorted(in_docs - in_code)}")
