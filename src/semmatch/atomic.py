"""Artifacts are replaced by rename, never rewritten in place. Each binary
one (records, checkpoint, index) is framed alike: an 8-byte magic, a packed
header whose first field is the version, and a payload of exactly the size
the header implies."""

from __future__ import annotations

import contextlib
import io
import mmap
import os
import struct
from typing import IO, BinaryIO, Iterator

import numpy as np


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "wb") -> Iterator[IO]:
    """Open a temporary file beside `path` for writing, and rename it over
    `path` once the block ends. A block that raises removes the temporary
    file and leaves whatever `path` held.

    A process that mapped the old file (read_matrices maps checkpoints and
    indexes) keeps its bytes: the rename gives the new file its own inode, where
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


def read_header(f: BinaryIO, magic: bytes, header: struct.Struct, version: int, name: str) -> tuple:
    """The header fields after the version, which is the first, read after
    `magic` at f's position. Another magic, a header cut short, or another
    version raises ValueError naming the artifact as `name`."""
    found = f.read(len(magic))
    if found != magic:
        raise ValueError(f"not a version-{version} {name} (magic {found!r})")
    raw = f.read(header.size)
    if len(raw) != header.size:
        raise ValueError(f"truncated {name}")
    fields = header.unpack(raw)
    if fields[0] != version:
        raise ValueError(f"unsupported {name} version {fields[0]}")
    return fields[1:]


def expect_size(f: BinaryIO, size: int, name: str) -> None:
    """Check, before anything is allocated, that exactly `size` bytes follow
    the position of the seekable file f. Fewer or more raise ValueError."""
    start = f.tell()
    present = f.seek(0, io.SEEK_END) - start
    f.seek(start)
    if present < size:
        raise ValueError(f"truncated {name}")
    if present > size:
        raise ValueError(f"{name} size does not match its header")


def read_array(f: BinaryIO, shape: tuple[int, ...], dtype: np.dtype | str = "<f8") -> np.ndarray:
    """A new array filled in place from the next bytes of f."""
    a = np.empty(shape, dtype=dtype)
    if f.readinto(a) != a.nbytes:
        raise ValueError("file ended inside an array")
    return a


def read_matrices(f: BinaryIO, count: int, shape: tuple[int, int]) -> list[np.ndarray]:
    """The next `count` float64 matrices of f, leaving f after them.

    A file with a descriptor is mapped copy-on-write rather than read: a
    page is read when a row on it is first touched, and writes stay private
    to the arrays. The arrays start wherever the matrices do in the file, so
    they need not be 8-byte aligned. A stream without one (io.BytesIO) is
    read into new arrays. Rewriting a mapped file in place while its arrays
    are alive can kill the process with SIGBUS; artifacts are replaced by
    rename instead (atomic_write)."""
    try:
        fd = f.fileno()
    except io.UnsupportedOperation:
        return [read_array(f, shape) for _ in range(count)]
    start = f.tell()
    floats = shape[0] * shape[1]
    end = start + 8 * floats * count
    mapped = mmap.mmap(fd, end, access=mmap.ACCESS_COPY)
    f.seek(end)
    return [
        np.frombuffer(mapped, "<f8", floats, start + 8 * floats * i).reshape(shape)
        for i in range(count)
    ]
