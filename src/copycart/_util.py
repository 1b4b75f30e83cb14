"""Small shared helpers (seed derivation)."""

from __future__ import annotations

import zlib

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
