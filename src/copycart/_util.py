"""Small shared helpers (seed derivation, text streams)."""

from __future__ import annotations

import io
import os
import zlib
from contextlib import contextmanager
from typing import Iterator, Union

import numpy as np


def derive_seed(seed: int, *tokens) -> int:
    """Deterministic 64-bit child seed from a root seed and string/int tokens.

    All randomness in the package flows from one mandatory root seed; stages
    and strata derive their own streams with stable tokens so adding or
    reordering analyses never perturbs unrelated results.
    """
    words = [int(seed) & 0xFFFFFFFF, (int(seed) >> 32) & 0xFFFFFFFF]
    for t in tokens:
        if isinstance(t, int):
            words.append(t & 0xFFFFFFFF)
            words.append((t >> 32) & 0xFFFFFFFF)
        else:
            words.append(zlib.crc32(str(t).encode("utf-8")))
    ss = np.random.SeedSequence(words)
    return int(ss.generate_state(1, np.uint64)[0])


@contextmanager
def text_stream(
    target: Union[str, os.PathLike, io.TextIOBase], mode: str = "r"
) -> Iterator[io.TextIOBase]:
    """A path opened as UTF-8 text with ``newline=""`` (as the csv module
    wants) and closed on exit; a stream is passed through and left open."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield target
