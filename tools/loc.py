"""Line counts of ``src/folichar/*.py``, in the form ROADMAP aim 2 and CHANGES.md use.

    python3 tools/loc.py

Prints one ```name.py` N`` line per module, in file-name order, then
``total N`` with a thousands comma.  A line is a newline character, so the
counts are those of ``wc -l src/folichar/*.py``.  Standard library only; it
reads the package next to this script, from any working directory.
"""

from __future__ import annotations

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "folichar"


def main():
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted(PACKAGE.glob("*.py"))}
    for name, n in counts.items():
        print(f"`{name}` {n:,}")
    print(f"total {sum(counts.values()):,}")


if __name__ == "__main__":
    main()
