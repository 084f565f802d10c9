"""Persist campaign results as JSON and tidy CSV for external analysis.

The repository deliberately has no plotting dependency; instead, a campaign's
rows can be written to plain JSON or CSV and read back type-faithfully.  The
writers and readers operate on the plain-dictionary form of campaign results
(see ``repro.campaign.result.CampaignResult.to_json_dict``) so that the
analysis layer stays free of campaign imports; ``CampaignResult`` wraps them
with typed ``to_json`` / ``from_json`` / ``rows_to_csv`` / ``rows_from_csv``
methods.  Every writer accepts a path, any file-like object with a ``write``
method, or nothing (it then returns the text).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, TextIO, Union

from ..exceptions import ReproError

__all__ = [
    "campaign_result_to_json",
    "campaign_result_from_json",
    "campaign_rows_to_csv",
    "campaign_rows_from_csv",
]

_Destination = Union[str, Path, TextIO]


def _open_destination(destination: Optional[_Destination]):
    """Return ``(file_object, should_close)`` for the given destination.

    With ``destination=None`` an in-memory buffer is returned, and the
    caller-facing wrapper functions return its contents as a string.
    """
    if destination is None:
        return io.StringIO(), False
    if isinstance(destination, (str, Path)):
        return open(destination, "w", encoding="utf-8", newline=""), True
    if hasattr(destination, "write"):
        return destination, False
    raise ReproError(f"unsupported destination {destination!r}")


def _finish(handle, destination: Optional[_Destination], should_close: bool) -> Optional[str]:
    """The text for ``destination=None``; close a file the writer opened."""
    if destination is None:
        return handle.getvalue()
    if should_close:
        handle.close()
    return None


def campaign_result_to_json(
    payload: Mapping, destination: Optional[_Destination] = None, *, indent: int = 2
) -> Optional[str]:
    """Write a campaign result payload (scenario, hash, rows) as JSON."""
    text = json.dumps(payload, indent=indent, sort_keys=True)
    handle, should_close = _open_destination(destination)
    handle.write(text + "\n")
    return _finish(handle, destination, should_close)


def _read_source(source: Union[str, Path, TextIO], looks_like_content) -> str:
    """Shared path / content-string / file-object dispatch for the readers.

    ``looks_like_content`` decides whether a plain string is the document
    itself (format-specific: JSON starts with ``{``, campaign CSV starts
    with its fixed header); anything else is treated as a path.
    """
    if isinstance(source, Path):
        return source.read_text(encoding="utf-8")
    if isinstance(source, str):
        if looks_like_content(source):
            return source
        return Path(source).read_text(encoding="utf-8")
    if hasattr(source, "read"):
        return source.read()
    raise ReproError(f"unsupported source {source!r}")


def campaign_result_from_json(source: Union[str, Path, TextIO]) -> Dict:
    """Load a campaign result payload written by :func:`campaign_result_to_json`.

    ``source`` may be a path, a file object, or the JSON text itself (any
    string starting with ``{`` is treated as text, not as a path).
    """
    text = _read_source(source, lambda s: s.lstrip().startswith("{"))
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ReproError("campaign JSON must decode to an object")
    return payload


def _campaign_csv_columns(rows: Sequence[Mapping]) -> "tuple[List[str], List[str]]":
    """Union of param / metric names over the rows, in first-seen order."""
    params: Dict[str, None] = {}
    metrics: Dict[str, None] = {}
    for row in rows:
        for axis, _ in row.get("params", ()):
            params.setdefault(axis, None)
        for name in row.get("metrics", {}):
            metrics.setdefault(name, None)
    return list(params), list(metrics)


def campaign_rows_to_csv(
    rows: Sequence[Mapping], destination: Optional[_Destination] = None
) -> Optional[str]:
    """One tidy CSV row per campaign run.

    Fixed identity columns first, then one ``param:<axis>`` column per sweep
    axis and one ``metric:<name>`` column per metric; every param/metric cell
    is JSON-encoded so values (floats, ints, strings, sample lists) survive
    the round trip through :func:`campaign_rows_from_csv` type-faithfully.
    """
    param_names, metric_names = _campaign_csv_columns(rows)
    handle, should_close = _open_destination(destination)
    writer = csv.writer(handle)
    writer.writerow(
        ["cell_index", "instance_index", "workload", "algorithm"]
        + [f"param:{axis}" for axis in param_names]
        + [f"metric:{name}" for name in metric_names]
    )
    for row in rows:
        params = {axis: value for axis, value in row.get("params", ())}
        metrics = row.get("metrics", {})
        writer.writerow(
            [
                row["cell_index"],
                row["instance_index"],
                row["workload"],
                row["algorithm"],
            ]
            + [
                json.dumps(params[axis]) if axis in params else ""
                for axis in param_names
            ]
            + [
                json.dumps(metrics[name]) if name in metrics else ""
                for name in metric_names
            ]
        )
    return _finish(handle, destination, should_close)


def campaign_rows_from_csv(source: Union[str, Path, TextIO]) -> List[Dict]:
    """Parse rows written by :func:`campaign_rows_to_csv` back into dictionaries."""
    # A campaign CSV string opens with the fixed identity header (covering
    # header-only documents) or spans lines; paths do neither.
    text = _read_source(
        source, lambda s: s.startswith("cell_index,") or "\n" in s
    )
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ReproError("campaign CSV is empty") from None
    expected = ["cell_index", "instance_index", "workload", "algorithm"]
    if header[: len(expected)] != expected:
        raise ReproError(f"unexpected campaign CSV header {header!r}")
    param_names = [
        name[len("param:"):] for name in header if name.startswith("param:")
    ]
    metric_names = [
        name[len("metric:"):] for name in header if name.startswith("metric:")
    ]
    rows: List[Dict] = []
    for record in reader:
        if not record:
            continue
        cells = dict(zip(header, record))
        params = [
            [axis, json.loads(cells[f"param:{axis}"])]
            for axis in param_names
            if cells.get(f"param:{axis}", "") != ""
        ]
        metrics = {
            name: json.loads(cells[f"metric:{name}"])
            for name in metric_names
            if cells.get(f"metric:{name}", "") != ""
        }
        rows.append(
            {
                "cell_index": int(cells["cell_index"]),
                "instance_index": int(cells["instance_index"]),
                "workload": cells["workload"],
                "algorithm": cells["algorithm"],
                "params": params,
                "metrics": metrics,
            }
        )
    return rows
