"""Output checks run after every timed command.

Each check reads the artifacts a run left in its output directory, through
the manifest as the program's own stages do, and raises ``CheckFailed``
with a reason when an output is wrong.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


class CheckFailed(Exception):
    pass


def manifest(out: Path) -> dict[str, str]:
    try:
        return json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"unreadable manifest in {out}: {exc}") from exc


def stage_path(out: Path, stage: str) -> Path:
    name = manifest(out).get(stage)
    if name is None or not (out / name).is_file():
        raise CheckFailed(f"stage {stage!r} has no artifact in {out}")
    return out / name


def read_json(out: Path, stage: str):
    return json.loads(stage_path(out, stage).read_text(encoding="utf-8"))


def read_jsonl(out: Path, stage: str) -> list[dict]:
    with open(stage_path(out, stage), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def exited_ok(code: int, argv: list[str]) -> None:
    if code != 0:
        raise CheckFailed(f"`proctag {' '.join(argv[:2])}` exited {code}")


def once_each(records: list[dict], ids: list[str], stage: str) -> None:
    """Every input record id appears exactly once, and nothing else does."""
    seen = [r.get("record_id") for r in records]
    if len(seen) != len(set(seen)):
        raise CheckFailed(f"{stage}: duplicate record ids")
    if set(seen) != set(ids):
        missing = len(set(ids) - set(seen))
        extra = len(set(seen) - set(ids))
        raise CheckFailed(f"{stage}: {missing} input records missing, {extra} unknown ids")


def discarded(out: Path, ids: list[str]) -> int:
    """Ledger total equals the record count; returns the discards."""
    ledger = read_json(out, "ledger")
    if ledger["total"] != len(ids):
        raise CheckFailed(f"ledger counts {ledger['total']} outcomes for {len(ids)} records")
    return ledger["discarded"]


def selection(out: Path, ids: list[str], ratio: float | None = None) -> list[str]:
    """The latest sample: unique ids from the input, ceil(ratio * n) of them
    when a ratio was requested."""
    selected = read_json(out, "sample")["selected"]
    if len(selected) != len(set(selected)):
        raise CheckFailed("sample: duplicate ids")
    if not set(selected) <= set(ids):
        raise CheckFailed("sample: ids not in the input")
    if ratio is not None and len(selected) != math.ceil(ratio * len(ids)):
        raise CheckFailed(f"sample: {len(selected)} ids, expected ceil({ratio} * {len(ids)})")
    return selected


def coverage_reached(selected: list[str], tagged: list[dict], target: float) -> None:
    """The selected records cover at least ``target`` of the normalized tags."""
    tags = {r["record_id"]: r["annotations"]["tags"]["aggregated"] for r in tagged}
    universe = {t for ts in tags.values() for t in ts}
    covered = {t for rid in selected for t in tags[rid]}
    if universe and len(covered) < target * len(universe):
        raise CheckFailed(f"sample: covers {len(covered)}/{len(universe)} tags, "
                          f"below the {target} target")
