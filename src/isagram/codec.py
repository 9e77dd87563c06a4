"""Binary-to-text codecs: Base16, Base32, Base64 (RFC 4648) and Base85.

Base85 here is the btoa/Ascii85 offset-33 scheme without the ``z``
zero-group shortcut and without ``<~ ~>`` framing: every 4-byte group is
read as a big-endian 32-bit integer and written as five base-85 digits
(character = digit + 33); a final partial group of n bytes is zero-padded
and written as n+1 characters.  The stdlib ``a85encode`` folds zero groups
to ``z``, so that variant is implemented by hand: ``encode_digits`` encodes
a whole batch with numpy, and ``encode`` renders its Base85 digits.
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


def _b85_decode(text: str) -> bytes:
    if len(text) % 5 == 1:
        raise DecodeError("base85: trailing single character has no decoding")
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    digits = codes.astype(np.int64) - 33
    outside = (digits < 0) | (digits >= 85)
    if outside.any():
        raise DecodeError(f"base85: character {text[outside.argmax()]!r} outside alphabet")
    digits = np.concatenate((digits, np.full(-len(text) % 5, 84)))  # pad with 'u' (max digit)
    value = digits.reshape(-1, 5) @ 85 ** np.arange(4, -1, -1)
    if (value > 0xFFFFFFFF).any():
        raise DecodeError("base85: group decodes above 2**32 - 1")
    return value.astype(">u4").tobytes()[: len(text) + len(text) // -5]  # n chars -> n - 1 bytes


def encode_digits(kind: Encoding, payloads: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Digits (alphabet indices) of every payload's unpadded encoding, and offsets.

    Each payload's last group is zero-padded on its own and keeps its
    ceil(8L/bits) (RFC 4648) or L + ceil(L/4) (Base85) significant digits, so
    payload i's digits spell ``strip_padding(kind, encode(kind, p))``.
    """
    g, c = kind.group_in_bytes, kind.group_out_chars
    lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
    groups = -(-lengths // g)
    first = np.cumsum(groups) - groups  # each payload's first group
    padded = np.zeros((int(groups.sum()), g), dtype=np.int64)
    padded.reshape(-1)[_runs(lengths, first * g)] = np.frombuffer(b"".join(payloads), np.uint8)
    value = padded @ 256 ** np.arange(g - 1, -1, -1)  # groups as big-endian integers
    place = np.arange(c - 1, -1, -1)
    if kind.name == "base85":
        digits, kept = value[:, None] // 85 ** place % 85, lengths + groups
    else:
        bits = len(kind.alphabet).bit_length() - 1
        digits, kept = value[:, None] >> bits * place & (2 ** bits - 1), -(-8 * lengths // bits)
    offsets = np.concatenate(([0], np.cumsum(kept)))
    return digits.reshape(-1)[_runs(kept, first * c)], offsets


def _runs(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """starts[i] + j for every j < counts[i], concatenated over i."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def encode(kind: Encoding, payload: bytes) -> str:
    """Encode raw bytes to text; Base16 output is uppercase."""
    if kind.name == "base16":
        return base64.b16encode(payload).decode("ascii")
    if kind.name == "base32":
        return base64.b32encode(payload).decode("ascii")
    if kind.name == "base64":
        return base64.b64encode(payload).decode("ascii")
    digits, _ = encode_digits(kind, [payload])
    return bytes((digits + 33).tolist()).decode("ascii")


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
            data = _b85_decode(text)
    except DecodeError:
        raise
    except ValueError as exc:  # binascii.Error, or non-ASCII text in the stdlib decoders
        raise DecodeError(f"{kind.name}: {exc}") from exc
    if encode(kind, data) != (text.upper() if kind.name == "base16" else text):
        raise DecodeError(f"{kind.name}: not the canonical encoding of the bytes it decodes to")
    return data


def strip_padding(kind: Encoding, text: str) -> str:
    """Drop trailing ``=`` padding.  Base85 legitimately uses '=' as a digit,
    so only the padded encodings are touched."""
    if kind.uses_padding:
        return text.rstrip("=")
    return text
