"""Codeword enumeration kernel: minimum labelweight of a row span.

The hot loop of the whole package is exhaustive codeword enumeration
(minimum labelweight / minimum distance).  It runs on codewords packed
into Python ints:

* **Layout.** The columns are regrouped by label, which does not change
  any labelweight.  Label l owns the bit slot [l*W, (l+1)*W), and its
  columns sit side by side at the bottom of it.  A coordinate of GF(p^e)
  is e base-p digit fields: one bit each when p = 2, otherwise
  p.bit_length() value bits under one guard bit, so that two digits sum
  without carrying into the next field.  W is the widest label group
  plus one more guard bit at the top of the slot.
* **Addition.** In characteristic 2 words add with ``^``.  For odd p the
  fields add in parallel (SWAR): u = w + r, then p is subtracted from
  every field whose guard bit shows u + (2^(dw-1) - p) overflowed.
* **Labelweight of a word.** Adding LO, all ones below each slot guard,
  carries into a slot's guard bit exactly when the slot is nonzero, so
  ``((x + LO) & HI).bit_count()`` counts the labels touched.  Any s
  works, since the words are unbounded ints.
* **Walk (meet in the middle).** Scaled rows c*g_i are packed once.  The
  spans L of the first ceil(k/2) rows and H of the rest are built by
  doubling.  Each codeword is l - h for exactly one pair (H is closed
  under negation), and packed words are canonical, so its support is the
  set of slots where l and h differ: the labelweight of l - h is that of
  ``l ^ h`` in every characteristic.  Each h takes the minimum over one
  comprehension across L, and the walk stops once a weight of 1 is seen.
  Memory is O(q^ceil(k/2)) words, not q^k.

Zero words (from the zero message, or from kernel messages of a
rank-deficient generator) are skipped, so the result is the labelweight
of the spanned code; if the span is trivial the sentinel s + 1 comes
back.
"""

from __future__ import annotations

BACKEND = "pure"


def min_labelweight(
    rows: bytes,
    nrows: int,
    ncols: int,
    labels0: bytes,
    add: bytes,
    mul: bytes,
    q: int,
    s: int,
) -> int:
    """Minimum labelweight over the nonzero words of the row span.

    `rows` is the row-major generator (nrows x ncols element codes, an
    element's base-p digits being its polynomial coefficients), `labels0`
    maps each column to a zero-based label < s, and `mul` is the flat
    q*q multiplication table.  `add` is not read: addition runs on the
    packed digits.
    """
    if nrows < 1:
        raise ValueError("generator needs at least one row")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    digits = 1
    while p**digits < q:
        digits += 1
    dw = 1 if p == 2 else p.bit_length() + 1  # digit field width

    # column j goes to bit pos[j]: its label's slot, after the label's
    # earlier columns
    filled = [0] * s
    pos = []
    for label in labels0:
        pos.append(filled[label])
        filled[label] += digits * dw
    width = max(filled, default=0) + 1
    pos = [label * width + at for label, at in zip(labels0, pos)]
    guards = sum(1 << (label * width + width - 1) for label in range(s))
    below = guards - sum(1 << (label * width) for label in range(s))

    spread = []  # element code -> its digits, one per field
    for v in range(q):
        x = 0
        for i in range(digits):
            x |= (v % p) << (i * dw)
            v //= p
        spread.append(x)
    scaled = [
        [
            sum(spread[mul[c * q + rows[i * ncols + j]]] << pos[j] for j in range(ncols))
            for c in range(q)
        ]
        for i in range(nrows)
    ]

    if p == 2:

        def span(multiples: list[list[int]]) -> list[int]:
            words = [0]
            for row in multiples:
                words = [w ^ r for r in row for w in words]
            return words

    else:
        shift = dw - 1
        fields = [1 << (pos[j] + i * dw) for j in range(ncols) for i in range(digits)]
        field_guards = sum(fields) << shift
        bias = sum(fields) * ((1 << shift) - p)

        def span(multiples: list[list[int]]) -> list[int]:
            words = [0]
            for row in multiples:
                words = [
                    u - ((u + bias & field_guards) >> shift) * p
                    for r in row
                    for w in words
                    for u in (w + r,)
                ]
            return words

    half = (nrows + 1) // 2
    low = span(scaled[:half])
    best = s + 1
    for h in span(scaled[half:]):
        weight = min(filter(None, [((h ^ w) + below & guards).bit_count() for w in low]), default=best)
        if weight < best:
            best = weight
            if best == 1:
                break
    return best
