"""A stream file's body read by ``json`` alone.

``reference_tokens`` is the body half of ``read_stream_jsonl`` as it stood
before body lines in the writer's own spelling were parsed as one array:
the second line through ``json.loads``, its keys checked, then the token
list checked for its length and for JSON integers, and turned into an int64
array. For every body line, ``read_stream_jsonl`` must give the same tokens
or raise the same exception with the same message.
"""

import json

import numpy as np

from wmseg.schemes import check_keys


def reference_tokens(path, n: int) -> np.ndarray:
    """The int64 tokens of the body record of the file at ``path``, whose
    header says ``n``; the records after the body are not read."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        body = json.loads(fh.readline() or "{}")
    check_keys(body, ("tokens",), "stream body", required=("tokens",))
    tokens = body["tokens"]
    if not isinstance(tokens, list):
        raise ValueError(f"{path}: body tokens must be a JSON list, not {type(tokens).__name__}")
    if len(tokens) != n:
        raise ValueError(f"{path}: header says n={n} but the body has {len(tokens)} tokens")
    # type(), not isinstance(): a JSON true reads as a bool, an int subclass.
    if set(map(type, tokens)) - {int}:
        i = next(i for i, token in enumerate(tokens) if type(token) is not int)
        raise ValueError(f"{path}: token {tokens[i]!r} at t={i + 1} is not an integer")
    try:
        return np.array(tokens, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{path}: a token lies outside the int64 range") from None
