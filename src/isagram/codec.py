"""Binary-to-text codecs: Base16, Base32, Base64 (RFC 4648) and Base85.

Base85 here is the btoa/Ascii85 offset-33 scheme without the ``z``
zero-group shortcut and without ``<~ ~>`` framing: every 4-byte group is
read as a big-endian 32-bit integer and written as five base-85 digits
(character = digit + 33); a final partial group of n bytes is zero-padded
and written as n+1 characters.  The stdlib ``a85encode`` folds zero groups
to ``z``, so that variant is implemented by hand: ``encode_digits`` encodes
a whole batch in uint8 and uint32/uint64 arithmetic on whole groups, and
``encode`` renders its Base85 digits.

Decoding is the stdlib's, then one rule for all four: the text must be what
``encode`` writes for the bytes it decodes to, which refuses the ``z`` and
whitespace ``a85decode`` takes.  Base85 decodes at about 0.2 s per MiB of text.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class DecodeError(ValueError):
    """Input text is not a valid encoding output."""


@dataclass(frozen=True)
class Encoding:
    name: str
    alphabet: str
    group_in_bytes: int
    group_out_chars: int
    uses_padding: bool


BASE16 = Encoding("base16", "0123456789ABCDEF", 1, 2, False)
BASE32 = Encoding("base32", "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567", 5, 8, True)
BASE64 = Encoding(
    "base64",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    3,
    4,
    True,
)
BASE85 = Encoding("base85", "".join(chr(33 + i) for i in range(85)), 4, 5, False)

ENCODINGS = {e.name: e for e in (BASE16, BASE32, BASE64, BASE85)}


def get_encoding(name: str) -> Encoding:
    key = name.lower()
    if key.isdigit():
        key = "base" + key
    if key not in ENCODINGS:
        raise KeyError(f"unknown encoding {name!r}; expected one of {sorted(ENCODINGS)}")
    return ENCODINGS[key]


def encode_digits(kind: Encoding, payloads: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Digits (uint8 alphabet indices) of every payload's unpadded encoding, and offsets.

    Each payload is zero-padded to whole groups on its own, and each group is
    read as a big-endian uint32 (Base32's 5-byte groups as a uint64); its
    digits come off with shifts and masks, or with ``% 85``.  A payload keeps
    ceil(8L/bits) (RFC 4648) or L + ceil(L/4) (Base85) significant digits, so
    payload i's digits spell ``encode(kind, p)`` without its trailing ``=``
    padding (Base85 has none; ``=`` is one of its digits).
    """
    g, c = kind.group_in_bytes, kind.group_out_chars
    lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
    groups = -(-lengths // g)
    padded = np.frombuffer(b"".join(payloads if g == 1 else  # one-byte groups need no padding
                                    [p + bytes(-len(p) % g) for p in payloads]), np.uint8)
    width = 1 if g == 1 else 4 if g <= 4 else 8  # bytes of the integer a group is read as
    value = np.zeros((padded.shape[0] // g, width), dtype=np.uint8)
    value[:, width - g:] = padded.reshape(-1, g)
    value = value.view(f">u{width}")[:, 0].astype(f"u{width}")
    base85, bits = kind.name == "base85", len(kind.alphabet).bit_length() - 1
    kept = lengths + groups if base85 else -(-8 * lengths // bits)
    digits = np.empty((value.shape[0], c), dtype=np.uint8)
    for j in range(c - 1, -1, -1):  # the last digit first
        digits[:, j] = value % 85 if base85 else value & (2**bits - 1)
        value = value // 85 if base85 else value >> bits
    # a payload's last group keeps its leading significant digits
    keep = np.ones(digits.shape, dtype=bool)
    nonempty = groups > 0
    keep[np.cumsum(groups)[nonempty] - 1] = np.arange(c) < (kept - (groups - 1) * c)[nonempty, None]
    return digits[keep], np.concatenate(([0], np.cumsum(kept)))


def encode(kind: Encoding, payload: bytes) -> str:
    """Encode raw bytes to text; Base16 output is uppercase."""
    if kind.name == "base16":
        return base64.b16encode(payload).decode("ascii")
    if kind.name == "base32":
        return base64.b32encode(payload).decode("ascii")
    if kind.name == "base64":
        return base64.b64encode(payload).decode("ascii")
    digits, _ = encode_digits(kind, [payload])
    return (digits + 33).tobytes().decode("ascii")


def decode(kind: Encoding, text: str) -> bytes:
    """Inverse of encode: accepts only text that ``encode`` could have
    written.  Base16 accepts either letter case.

    Raises DecodeError for characters outside the alphabet, malformed
    padding, base85 groups above 2**32 - 1, or non-canonical text (nonzero
    unused trailing bits, e.g. base64 ``QR==`` for ``QQ==``).
    """
    try:
        if kind.name == "base16":
            data = base64.b16decode(text, casefold=True)
        elif kind.name == "base32":
            data = base64.b32decode(text)
        elif kind.name == "base64":
            data = base64.b64decode(text, validate=True)
        else:
            data = base64.a85decode(text)
    except ValueError as exc:  # binascii.Error, a85decode's errors, or non-ASCII text
        raise DecodeError(f"{kind.name}: {exc}") from exc
    if encode(kind, data) != (text.upper() if kind.name == "base16" else text):
        raise DecodeError(f"{kind.name}: not the canonical encoding of the bytes it decodes to")
    return data
