"""The byte-level corruption that the file fuzz tests share."""
from hypothesis import strategies as st


@st.composite
def corrupted(draw, raw, byte):
    """``raw`` after one drawn corruption: bytes from the strategy ``byte``
    replaced or inserted, bytes deleted, a line repeated, or a cut."""
    kind = draw(st.sampled_from(["replace", "insert", "delete", "repeat", "cut"]))
    at = draw(st.integers(0, len(raw)))
    if kind == "replace" and raw:
        at = min(at, len(raw) - 1)
        return raw[:at] + bytes([draw(byte)]) + raw[at + 1:]
    if kind == "insert":
        return raw[:at] + bytes(draw(st.lists(byte, min_size=1, max_size=4))) + raw[at:]
    if kind == "delete":
        return raw[:at] + raw[at + draw(st.integers(1, 4)):]
    if kind == "repeat":
        lines = raw.splitlines(keepends=True) or [b""]
        k = draw(st.integers(0, len(lines) - 1))
        return b"".join(lines[:k + 1] + lines[k:])
    return raw[:at]
