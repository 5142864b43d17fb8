"""Reference table writer for ``peakonlab.cli._write_table``.

This was the command line's own writer before the column-typed one
replaced it; it is kept here, unchanged, as the byte-for-byte reference.
It takes the table row by row, formats each cell after checking its type
(floats with 17 significant digits, anything else with ``str``) and leaves
quoting to ``csv.writer``.
"""

import csv
import io
import json
import os
from pathlib import Path
from typing import Sequence


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(f".tmp-{path.name}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_table(path: Path, columns: Sequence[str], rows, fmt: str) -> None:
    if fmt == "json":
        payload = {"columns": list(columns), "data": [[_fmt(v) for v in row] for row in rows]}
        _write_atomic(path.with_suffix(".json"), json.dumps(payload, indent=1) + "\n")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        _write_atomic(path.with_suffix(".csv"), buf.getvalue())
