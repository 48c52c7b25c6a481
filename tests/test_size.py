"""Size guard: the package source stays within the roadmap's line ceiling."""

from pathlib import Path

import seldkit

# ROADMAP item 7's ceiling for `wc -l src/seldkit/*.py`.
MAX_SOURCE_LINES = 3799


def test_source_lines_stay_within_the_ceiling():
    files = sorted(Path(seldkit.__file__).parent.glob("*.py"))
    assert len(files) > 10
    # wc -l counts newline characters.
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    assert lines <= MAX_SOURCE_LINES, f"src/seldkit/*.py holds {lines} lines"
