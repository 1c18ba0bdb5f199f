"""Every command of the fast matrix prints what tests/outputs.sha256 records.

The slow families are checked by `python tests/manifest.py --part slow`.
"""

from __future__ import annotations

import manifest


def test_fast_outputs_match_the_manifest():
    diff = manifest.differences(manifest.compute("fast"), manifest.recorded("fast"))
    assert diff == [], "\n".join(diff[:20])


def test_manifest_covers_every_input():
    labels = {c.split("  ", 1)[0] for c in manifest.read_manifest()}
    assert labels == set(manifest.inputs("fast")) | set(manifest.inputs("slow"))
