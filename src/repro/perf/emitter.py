"""The machine-readable emitter: one writer, two renderers.

Two artefacts, one code path each:

* **``BENCH_pkc.json``** — the persistent perf-trajectory file at the repo
  root.  :func:`update_bench` read-modify-writes it: each benchmarked
  ``scheme:operation`` cell is replaced by its newest
  :class:`~repro.perf.record.PerfRecord` while untouched cells survive, so
  the file accumulates the full scheme x operation matrix across partial
  runs and its committed state is the baseline the next run is compared
  against.

* **``benchmarks/results/<name>.{txt,json}``** — every benchmark table is
  written once as structured rows and rendered twice, as the historical
  aligned-ASCII ``.txt`` and as JSON rows beside it
  (:func:`write_result`).  There is no second writer to drift from the
  first: the txt and json views are projections of the same call.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Dict, Iterable, Optional, Sequence

from repro.analysis.report import render_table
from repro.perf.record import SCHEMA_VERSION, PerfRecord

__all__ = [
    "DEFAULT_BENCH_FILENAME",
    "bench_path",
    "load_bench",
    "update_bench",
    "write_result",
]

DEFAULT_BENCH_FILENAME = "BENCH_pkc.json"

#: Environment override for the trajectory file location.
BENCH_PATH_ENV = "REPRO_BENCH_PATH"


def bench_path(root: "Optional[pathlib.Path | str]" = None) -> pathlib.Path:
    """Where the trajectory file lives: ``$REPRO_BENCH_PATH`` or ``root/BENCH_pkc.json``."""
    override = os.environ.get(BENCH_PATH_ENV)
    if override:
        return pathlib.Path(override)
    return pathlib.Path(root or ".") / DEFAULT_BENCH_FILENAME


def load_bench(path: "pathlib.Path | str") -> Dict[str, PerfRecord]:
    """The trajectory file's entries, keyed ``scheme:operation``.

    A missing file is an empty trajectory (first run ever); a malformed one
    raises — silently discarding a corrupt baseline would let regressions
    through unnoticed.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return {}
    document = json.loads(path.read_text())
    entries = document.get("entries", {})
    return {key: PerfRecord.from_dict(value) for key, value in entries.items()}


def update_bench(
    path: "pathlib.Path | str", records: Iterable[PerfRecord]
) -> Dict[str, PerfRecord]:
    """Merge ``records`` into the trajectory file and rewrite it.

    Existing cells not re-measured by this run are preserved, so partial
    runs (a quick CI smoke, a single-scheme investigation) never erase the
    rest of the matrix.  Returns the merged entries.
    """
    path = pathlib.Path(path)
    merged = load_bench(path)
    for record in records:
        merged[record.key] = record
    document = {
        "schema": SCHEMA_VERSION,
        "generated_unix": int(time.time()),
        "entries": {key: merged[key].as_dict() for key in sorted(merged)},
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return merged


def write_result(
    directory: "pathlib.Path | str",
    name: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Write one benchmark table as ``<name>.txt`` and ``<name>.json``.

    The single structured-rows entry point behind every benchmark table:
    the ASCII rendering (for eyes and the historical results directory) and
    the JSON rows (for tooling) cannot drift because both are derived here
    from the same data.  Returns the rendered text.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = [list(row) for row in rows]
    text = render_table(headers, rows, title=title)
    (directory / f"{name}.txt").write_text(text + os.linesep)
    document = {
        "title": title,
        "columns": list(headers),
        "rows": [dict(zip(headers, row)) for row in rows],
    }
    (directory / f"{name}.json").write_text(
        json.dumps(document, indent=2, default=str) + "\n"
    )
    return text
