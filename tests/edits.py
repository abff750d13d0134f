"""Token edits for the tests: substitutions, insertions and deletions.

Positions are 1-based and refer to the sequence as it stands when each edit
applies.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Substitution:
    position: int  # 1-based
    token: int


@dataclass(frozen=True)
class Insertion:
    position: int  # new token ends up at this 1-based position
    token: int


@dataclass(frozen=True)
class Deletion:
    position: int  # 1-based


Edit = Substitution | Insertion | Deletion


def apply_edits(tokens: Sequence[int], edits: Sequence[Edit]) -> np.ndarray:
    """Apply substitutions, insertions and deletions in order.

    Positions refer to the sequence as it stands when each edit applies, so
    a deletion shifts everything after it left by one.
    """
    out = list(np.asarray(tokens, dtype=np.int64))
    for edit in edits:
        if isinstance(edit, Substitution):
            if not 1 <= edit.position <= len(out):
                raise IndexError(f"substitution position {edit.position} out of bounds")
            out[edit.position - 1] = edit.token
        elif isinstance(edit, Insertion):
            if not 1 <= edit.position <= len(out) + 1:
                raise IndexError(f"insertion position {edit.position} out of bounds")
            out.insert(edit.position - 1, edit.token)
        elif isinstance(edit, Deletion):
            if not 1 <= edit.position <= len(out):
                raise IndexError(f"deletion position {edit.position} out of bounds")
            del out[edit.position - 1]
        else:
            raise TypeError(f"unknown edit {edit!r}")
    return np.asarray(out, dtype=np.int64)
