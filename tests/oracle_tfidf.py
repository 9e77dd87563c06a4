"""Independent brute-force TF-IDF evaluator used as a test oracle.

Deliberately written with plain dictionaries, lists and math.log, before and
apart from the vectorized implementation, so the two share no code. Grams
are tuples of symbols (ints for byte mode, single characters for char mode)
ordered by natural tuple comparison, which for sorted alphabets coincides
with alphabet-rank order.
"""

import math


def seq_of(payload, mode, encoding=None):
    """Symbol sequence of one document: byte ints, or stripped encoded chars."""
    if mode == "byte":
        return list(payload)
    from isagram import codec

    return list(strip_padding(encoding, codec.encode(encoding, payload)))


def strip_padding(encoding, text):
    """Drop trailing ``=`` padding.  Base85 legitimately uses '=' as a digit,
    so only the padded encodings are touched."""
    return text.rstrip("=") if encoding.uses_padding else text


def alphabet_of(mode, encoding=None):
    if mode == "byte":
        return list(range(256))
    return sorted(encoding.alphabet)


def grams_in(seq, n):
    return [tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)]


def oracle_fit(train_seqs, alphabet, cap=5000):
    """Vocabulary (block-ordered gram tuples) and idf dict per the formulas.

    grams_3 selection: all alphabet^3 candidates when that fits the cap,
    otherwise only grams observed in training; ranked by total occurrence
    count descending with ascending tuple order breaking ties.
    """
    d_total = len(train_seqs)
    df = {}
    totals = {}
    for seq in train_seqs:
        seen = set()
        for n in (1, 2, 3):
            gs = grams_in(seq, n)
            if n == 3:
                for g in gs:
                    totals[g] = totals.get(g, 0) + 1
            seen.update(gs)
        for g in seen:
            df[g] = df.get(g, 0) + 1
    vocab = [(a,) for a in alphabet]
    vocab += [(a, b) for a in alphabet for b in alphabet]
    if len(alphabet) ** 3 <= cap:
        grams3 = [(a, b, c) for a in alphabet for b in alphabet for c in alphabet]
        grams3.sort(key=lambda g: (-totals.get(g, 0), g))
    else:
        grams3 = sorted(totals, key=lambda g: (-totals[g], g))[:cap]
    vocab += grams3
    idf = {g: math.log((d_total + 1) / (df.get(g, 0) + 1)) + 1.0 for g in vocab}
    return vocab, idf


def oracle_transform(seq, vocab, idf, normalize=True):
    """TF(tau) * IDF(tau) per vocabulary slot, then optional unit L2 norm."""
    counts = {}
    windows = {n: max(0, len(seq) - n + 1) for n in (1, 2, 3)}
    for n in (1, 2, 3):
        for g in grams_in(seq, n):
            counts[g] = counts.get(g, 0) + 1
    vals = []
    for g in vocab:
        total = windows[len(g)]
        tf = counts.get(g, 0) / total if total > 0 else 0.0
        vals.append(tf * idf[g])
    if normalize:
        norm = math.sqrt(sum(v * v for v in vals))
        if norm > 0:
            vals = [v / norm for v in vals]
    return vals


def oracle_hist_endian(payload, mode, encoding=None):
    """Histogram over symbols plus the four 2-byte endianness pattern rates."""
    seq = seq_of(payload, mode, encoding)
    alphabet = alphabet_of(mode, encoding)
    hist = [seq.count(s) / len(seq) if seq else 0.0 for s in alphabet]
    endian = []
    for pat in (b"\x00\x01", b"\x01\x00", b"\xff\xfe", b"\xfe\xff"):
        hits = sum(
            1 for i in range(len(payload) - 1) if payload[i : i + 2] == pat
        )
        endian.append(hits / len(payload))
    return hist + endian
