"""Artifacts are replaced by rename, never rewritten in place."""

from __future__ import annotations

import contextlib
import os
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "wb") -> Iterator[IO]:
    """Open a temporary file beside `path` for writing, and rename it over
    `path` once the block ends. A block that raises removes the temporary
    file and leaves whatever `path` held.

    A process that mapped the old file (model.load_model maps checkpoints)
    keeps its bytes: the rename gives the new file its own inode, where
    truncating the old one in place would make the mapped pages fault."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
