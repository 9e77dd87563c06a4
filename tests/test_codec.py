import base64

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_tfidf as oracle
from isagram import codec, vectorize
from isagram.corpus import Document
from isagram.rng import SplitMix64

PAYLOAD = bytes.fromhex("d743d444d644d845")

GOLDENS = {
    "base16": "D743D444D644D845",
    "base32": "25B5IRGWITMEK===",
    "base64": "10PURNZE2EU=",
    "base85": "f0e%UejS.Z",
}


@pytest.mark.parametrize("name,expected", sorted(GOLDENS.items()))
def test_golden_vectors(name, expected):
    enc = codec.get_encoding(name)
    assert codec.encode(enc, PAYLOAD) == expected
    assert codec.decode(enc, expected) == PAYLOAD


def test_get_encoding_accepts_bare_numbers():
    assert codec.get_encoding("16") is codec.BASE16
    assert codec.get_encoding("Base85") is codec.BASE85
    with pytest.raises(KeyError):
        codec.get_encoding("base7")


def test_empty_payload():
    for enc in codec.ENCODINGS.values():
        assert codec.encode(enc, b"") == ""
        assert codec.decode(enc, "") == b""


def _random_payload(rng, max_len=64):
    return bytes(rng.randbyte() for _ in range(rng.randbelow(max_len + 1)))


@pytest.mark.parametrize("name", sorted(codec.ENCODINGS))
def test_roundtrip_seeded(name):
    enc = codec.get_encoding(name)
    rng = SplitMix64(0xC0DEC ^ hash(name) & 0xFFFF)
    for _ in range(500):
        payload = _random_payload(rng)
        assert codec.decode(enc, codec.encode(enc, payload)) == payload


def test_rfc_encodings_match_stdlib():
    rng = SplitMix64(77)
    for _ in range(200):
        payload = _random_payload(rng)
        assert codec.encode(codec.BASE16, payload) == base64.b16encode(payload).decode()
        assert codec.encode(codec.BASE32, payload) == base64.b32encode(payload).decode()
        assert codec.encode(codec.BASE64, payload) == base64.b64encode(payload).decode()


def test_base85_no_zero_group_shortcut():
    # four zero bytes must become five '!' digits, never the stdlib 'z' fold
    assert codec.encode(codec.BASE85, b"\x00\x00\x00\x00") == "!!!!!"
    assert codec.decode(codec.BASE85, "!!!!!") == b"\x00\x00\x00\x00"
    with pytest.raises(codec.DecodeError):
        codec.decode(codec.BASE85, "z")


def test_base85_matches_stdlib_on_nonzero_groups():
    rng = SplitMix64(85)
    checked = 0
    while checked < 100:
        payload = _random_payload(rng)
        if any(payload[i : i + 4] == b"\x00\x00\x00\x00" for i in range(0, len(payload), 4)):
            continue
        assert codec.encode(codec.BASE85, payload) == base64.a85encode(payload).decode()
        checked += 1


def test_base85_partial_group_lengths():
    # n leftover bytes encode to n + 1 characters
    for n, chars in [(1, 2), (2, 3), (3, 4)]:
        text = codec.encode(codec.BASE85, bytes(range(4 + n)))
        assert len(text) == 5 + chars


def test_base16_decode_accepts_lowercase():
    assert codec.decode(codec.BASE16, "d743d444d644d845") == PAYLOAD


@pytest.mark.parametrize(
    "name,text",
    [
        ("base16", "D7Q3"),
        ("base16", "D74"),
        ("base32", "25B5IRGWITMEK==="[:-1]),
        ("base32", "1" + "25B5IRGWITMEK=="),
        ("base64", "10PURNZE2EU"),
        ("base64", "A==="),
        ("base64", "10PUR*ZE2EU="),
        ("base85", "f"),
        ("base85", "f0e%UejS.Zf"),
        ("base85", "uuuuu"),
        ("base85", "f0e%\x19"),
    ],
)
def test_decode_rejects_malformed(name, text):
    with pytest.raises(codec.DecodeError):
        codec.decode(codec.get_encoding(name), text)


@pytest.mark.parametrize(
    "name,text,canonical",
    [
        ("base64", "QR==", "QQ=="),
        ("base32", "MF======", "ME======"),
        ("base85", "5m", "5l"),
        ("base85", "5u", "5l"),
    ],
)
def test_decode_rejects_noncanonical_text(name, text, canonical):
    # the unused low bits of a partial group must be zero, as encode writes them
    enc = codec.get_encoding(name)
    with pytest.raises(codec.DecodeError):
        codec.decode(enc, text)
    assert codec.encode(enc, codec.decode(enc, canonical)) == canonical


def test_decode_error_is_value_error():
    assert issubclass(codec.DecodeError, ValueError)


def test_strip_padding():
    assert oracle.strip_padding(codec.BASE32, "25B5IRGWITMEK===") == "25B5IRGWITMEK"
    assert oracle.strip_padding(codec.BASE64, "10PURNZE2EU=") == "10PURNZE2EU"
    assert oracle.strip_padding(codec.BASE16, "D743") == "D743"
    # '=' is a real base85 digit (value 28) and must survive
    text = codec.encode(codec.BASE85, b"\x00\x00\x00\x1c")
    assert text == "!!!!="
    assert oracle.strip_padding(codec.BASE85, text) == "!!!!="


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

encodings = st.sampled_from(sorted(codec.ENCODINGS)).map(codec.get_encoding)
# 0..70 bytes covers the empty payload and every partial-group length of all four
payload_lists = st.lists(st.binary(max_size=70), max_size=6)


@settings(deadline=None)
@given(encodings, payload_lists)
def test_batch_digits_spell_the_unpadded_text(enc, payloads):
    digits, offsets = codec.encode_digits(enc, payloads)
    texts = [oracle.strip_padding(enc, codec.encode(enc, p)) for p in payloads]
    assert offsets.tolist() == np.cumsum([0] + [len(t) for t in texts]).tolist()
    assert "".join(enc.alphabet[d] for d in digits.tolist()) == "".join(texts)
    # the feature codes are the characters' ranks in the sorted alphabet; a Document's
    # payload is nonempty, and an empty payload adds no digits
    kept = [i for i, p in enumerate(payloads) if p]
    docs = [Document(payloads[i], None, str(i)) for i in kept]
    ranks, rank_offsets = vectorize._terms(docs, enc)
    ordered = sorted(enc.alphabet)
    assert ranks.tolist() == [ordered.index(ch) for ch in "".join(texts)]
    assert np.array_equal(rank_offsets, offsets[[0] + [i + 1 for i in kept]])


@settings(deadline=None)
@given(encodings, st.binary(max_size=70))
def test_decode_inverts_encode(enc, payload):
    assert codec.decode(enc, codec.encode(enc, payload)) == payload


@settings(deadline=None)
@given(encodings, st.text(max_size=24))
def test_decode_of_any_text_returns_bytes_or_raises_decode_error(enc, text):
    try:
        payload = codec.decode(enc, text)
    except codec.DecodeError:
        return
    assert codec.decode(enc, codec.encode(enc, payload)) == payload


@settings(deadline=None)
@given(st.data())
def test_accepted_text_is_canonical(data):
    enc = data.draw(encodings)
    extra = "abcdef" if enc is codec.BASE16 else ""  # Base16 takes either case
    text = data.draw(st.text(alphabet=enc.alphabet + "=" + extra, max_size=24))
    try:
        payload = codec.decode(enc, text)
    except codec.DecodeError:
        return
    assert codec.encode(enc, payload) == (text.upper() if enc is codec.BASE16 else text)
