"""The one output path of every carl writer: a path or an open text file."""

from __future__ import annotations

import contextlib
import json
from typing import IO, Iterator, Union

PathOrFile = Union[str, IO[str]]


@contextlib.contextmanager
def text_sink(path_or_file: PathOrFile) -> Iterator[IO[str]]:
    """Yield ``path_or_file`` itself if it is an open file, else that path opened for writing."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as f:
            yield f
    else:
        yield path_or_file


def write_json(doc, path_or_file: PathOrFile) -> None:
    """Write one JSON document: indent 2, sorted keys, trailing newline."""
    with text_sink(path_or_file) as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
