"""JSON documents on disk: one atomic writer, one forgiving reader.

The result store, the dataset registry and the tenant registry keep
their tables as JSON files that other processes (fleet replicas, a
restarted server) read concurrently.  Every write goes through
:func:`write_atomic` — a tempfile in the target directory, then
``os.replace`` — so a reader sees the old document or the new one,
never a torn one, and a killed writer leaves no half-written file.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Optional


def write_atomic(path: str, payload: Dict[str, Any]) -> None:
    """Write ``payload`` to ``path`` as sorted-key JSON plus a newline.

    Creates the parent directory on demand (a bare file name lands in
    the working directory); the file is replaced in one step, so
    concurrent readers never see a partial document.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            # json.dumps, not json.dump: only the one-shot form uses the
            # C encoder, and the serve store writes on the event loop.
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str) -> Optional[Any]:
    """The JSON document at ``path``; ``None`` when missing or unreadable.

    An unreadable file counts as absent: the next write replaces it.
    """
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):  # ValueError: malformed JSON or not UTF-8
        return None
