"""Regenerate the figure reference rows in ``tests/figures/``.

    PYTHONPATH=src python tests/regen_figures.py

runs every ``washboard fig`` preset and writes its CSVs there, one per
preset entry (``fig1_gamma0.01.csv``, ..).  ``tests/test_figures.py``
compares a fresh run of the presets with these files.  A change that moves a
figure row reruns this script and lists every moved value in CHANGES.md.
"""

from __future__ import annotations

import pathlib
import sys

from washboard.cli import FIG_PRESETS, main

REFERENCE = pathlib.Path(__file__).resolve().parent / "figures"


def write_figures(folder: pathlib.Path) -> dict[str, int]:
    """Run every preset into ``folder``: preset name -> exit code."""
    folder.mkdir(parents=True, exist_ok=True)
    return {preset: main(["fig", preset, "--out", str(folder / f"{preset}.csv")])
            for preset in sorted(FIG_PRESETS)}


if __name__ == "__main__":
    codes = write_figures(REFERENCE)
    sys.exit(max(codes.values()))
