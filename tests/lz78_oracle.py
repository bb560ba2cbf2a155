"""Phrase-length oracle for the LZ78 parse, written from its definition.

Each phrase extends an already seen phrase by one bit; a trailing
phrase that is itself already seen ends the parse.  Slow; only the
tests call it.
"""


def lz78_phrase_lengths(bits: str):
    """Lengths of the incremental parse of a 0/1 string."""
    seen = {""}
    out, cur = [], ""
    for b in bits:
        cur += b
        if cur not in seen:
            seen.add(cur)
            out.append(len(cur))
            cur = ""
    if cur:
        out.append(len(cur))
    return out
