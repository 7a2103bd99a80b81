"""The CLI artifact set of tools/artifact_set.py, byte for byte against the
committed listing tests/artifact_listing.txt."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LISTING = ROOT / "tests" / "artifact_listing.txt"
spec = importlib.util.spec_from_file_location("artifact_set", ROOT / "tools" / "artifact_set.py")
artifact_set = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_set)


def test_the_artifact_set_equals_the_committed_listing(tmp_path, monkeypatch):
    # the bits are pinned for the environment in the listing's header; elsewhere
    # a mismatch fails, naming both environments, rather than skipping
    monkeypatch.chdir(tmp_path)   # write_set changes the working directory
    artifact_set.write_set(tmp_path)
    running = dict(line.rsplit(" ", 1) for line in artifact_set.listing(tmp_path))
    header, *lines = LISTING.read_text(encoding="utf-8").splitlines()
    committed = dict(line.rsplit(" ", 1) for line in lines)
    moved = {"added": running.keys() - committed.keys(),
             "removed": committed.keys() - running.keys(),
             "changed": {p for p in running.keys() & committed.keys()
                         if running[p] != committed[p]}}
    assert running == committed, (
        "the artifact set differs from tests/artifact_listing.txt:\n"
        + "".join(f"  {kind}: {path}\n" for kind, paths in moved.items()
                  for path in sorted(paths))
        + f"committed: {header}\nrunning:   {artifact_set.environment()}\n"
        "if the change is intended: PYTHONPATH=src python tools/artifact_set.py "
        "--listing > tests/artifact_listing.txt")
