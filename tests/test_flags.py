"""repro.flags: one parser and one scoped override for the global switches."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import flags

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_SWITCHES = {"REPRO_FAST_PATH": "fast_path", "REPRO_DEDUP": "dedup"}


def _import_flags(variable: str, raw: str) -> subprocess.CompletedProcess:
    """Import repro.flags in a fresh interpreter with *variable*=*raw*."""
    env = dict(os.environ, PYTHONPATH=_SRC, **{variable: raw})
    probe = ("import sys; from repro import flags; "
             "print(getattr(flags, sys.argv[1]))")
    return subprocess.run(
        [sys.executable, "-c", probe, _SWITCHES[variable]],
        env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("variable", sorted(_SWITCHES))
@pytest.mark.parametrize("raw,expected", [
    ("1", True), ("true", True), ("ON", True), ("Yes", True),
    ("0", False), ("False", False), ("off", False), ("NO", False),
    ("disabled", None), ("", None), ("2", None),
])
def test_switch_spellings_and_junk_values(variable, raw, expected):
    proc = _import_flags(variable, raw)
    if expected is None:
        assert proc.returncode != 0
        assert "ValueError" in proc.stderr
        assert variable in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(expected)


def test_override_restores_on_error_and_rejects_unknown_switches():
    before = (flags.fast_path, flags.dedup)
    with pytest.raises(RuntimeError):
        with flags.override(fast_path=not before[0], dedup=not before[1]):
            assert (flags.fast_path, flags.dedup) == \
                (not before[0], not before[1])
            raise RuntimeError("boom")
    assert (flags.fast_path, flags.dedup) == before
    assert flags._SWITCHES == ("fast_path", "dedup")
    for unknown in ({"fastpath": False}, {"obs": True}):
        with pytest.raises(TypeError, match="unknown switches"):
            with flags.override(**unknown):
                pass
