"""Codeword enumeration kernel: minimum labelweight of a row span.

The hot loop of the whole package is exhaustive codeword enumeration
(minimum labelweight / minimum distance).  It runs on codewords packed
into Python ints:

* **Layout.** The columns are regrouped by label, which does not change
  any labelweight.  Label l owns the bit slot [l*W, (l+1)*W), and its
  columns sit side by side at the bottom of it.  A coordinate of GF(p^e)
  is e base-p digit fields in the form of galois.digit_layout (the one
  matrix's row operations use): one bit each when p = 2, otherwise
  p.bit_length() value bits under one guard bit.  W is the widest label
  group plus one more guard bit at the top of the slot.
* **Addition.** In characteristic 2 words add with ``^``.  For odd p the
  fields add in parallel (SWAR): u = w + r, then p is subtracted from
  every field whose guard bit shows u + (2^(dw-1) - p) overflowed.
* **Label-equality planes.** Scaled rows c*g_i are packed once.  The
  first rows span the low span L, words L[x] for x < |L|, and the rest
  the high span H.  Each codeword is L[x] - h for exactly one pair (H is
  closed under negation), and packed words are canonical, so label l of
  L[x] - h is zero exactly when seg_l(L[x]) == seg_l(h), seg_l being the
  label's slot.  For each used label l and segment value v one int
  E[l][v] has bit x set iff seg_l(L[x]) == v.  It is built by doubling
  across the low rows: block c of the grown span is the old span plus
  c*g_i, so E'[l][v + seg_l(c*g_i)] |= E[l][v] << c*|old span|.
* **Walk.** For each high word h, Z_l = E[l][seg_l(h)] marks the x where
  label l of L[x] - h is zero.  A carry-save adder tree sums the Z_l into
  the bit-sliced count of zero labels at every x; the x whose every label
  is zero (the zero word) are dropped, and narrowing from the top count
  bit down finds the largest count, so the weight is the used labels less
  that count.  c*w weighs what w does, so only h = 0 and one word of each
  line of H (leading high digit 1) are walked.  The walk stops once a
  weight of 1 is seen.
* **Split.** A row joins the low span while the span stays within
  LOW_SPAN_CAP positions and tabulating it, (q - 1) times the segment
  values present (a label of c columns has at most q^c), costs less than
  the high words it saves, a label's share of one high word costing about
  TABLE_ENTRIES_PER_LABEL_STEP table entries.  Memory is the tables: at
  most LOW_SPAN_CAP bits for each (label, value) pair present.

Zero words (from the zero message, or from kernel messages of a
rank-deficient generator) are skipped, so the result is the labelweight
of the spanned code; if the span is trivial the sentinel s + 1 comes
back.
"""

from __future__ import annotations

import operator
from collections import Counter

from .galois import digit_layout, prime_power

BACKEND = "pure"
LOW_SPAN_CAP = 1 << 11
TABLE_ENTRIES_PER_LABEL_STEP = 3


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
    (p, digits), (dw, spread) = prime_power(q), digit_layout(q)  # dw: digit field width; spread: code -> digits

    # column j goes to bit pos[j]: its label's slot, after the label's
    # earlier columns
    filled = [0] * s
    pos = []
    for label in labels0:
        pos.append(filled[label])
        filled[label] += digits * dw
    width = max(filled, default=0) + 1
    pos = [label * width + at for label, at in zip(labels0, pos)]

    scaled = [
        [0]
        + [
            sum(spread[mul[c * q + rows[i * ncols + j]]] << pos[j] for j in range(ncols))
            for c in range(1, q)
        ]
        for i in range(nrows)
    ]

    if p == 2:
        plus = operator.xor
    else:
        shift = dw - 1
        # every digit field of every slot, used or not: a field that
        # holds 0 in both words never sets its guard
        fields = sum(1 << (label * width + i * dw) for label in range(s) for i in range((width - 1) // dw))
        field_guards = fields << shift
        bias = fields * ((1 << shift) - p)

        def plus(w: int, r: int) -> int:
            u = w + r
            return u - ((u + bias & field_guards) >> shift) * p

    # each used label's slot: (offset, mask)
    used = [(label * width, (1 << filled[label]) - 1) for label in range(s) if filled[label]]
    # used labels by column count: a label of c columns takes at most q^c values
    columns = Counter(filled[label] // (digits * dw) for label in range(s) if filled[label])
    low_rows = 1
    while low_rows < nrows and q ** (low_rows + 1) <= LOW_SPAN_CAP:
        low_rows += 1
    # drop the last low row while its tables cost more than the walk it saves
    while (
        low_rows > 1
        and (q - 1) * sum(n * q ** min(low_rows - 1, c) for c, n in columns.items())
        >= TABLE_ENTRIES_PER_LABEL_STEP * len(used) * q ** (nrows - low_rows)
    ):
        low_rows -= 1

    tables = []  # tables[l][v]: the x with seg_l(L[x]) == v, as bits of one int
    for off, mask in used:
        table, size = {0: 1}, 1
        for row in scaled[:low_rows]:
            grown = dict(table)
            for c in range(1, q):
                t, at = row[c] >> off & mask, c * size
                for v, bits in table.items():
                    key = plus(v, t)
                    grown[key] = grown.get(key, 0) | bits << at
            table, size = grown, size * q
        tables.append(table)

    # h = 0 and one word of each line of the high span
    span, walk = [0], [0]
    for i in reversed(range(low_rows, nrows)):
        walk += [plus(w, scaled[i][1]) for w in span]
        if i > low_rows:
            span = [plus(w, r) for r in scaled[i] for w in span]

    full = (1 << q**low_rows) - 1
    nused = len(used)
    slots = list(zip(used, tables))
    best = s + 1
    for h in walk:
        # counts[b]: bit b of the number of zero labels of L[x] - h, at bit x
        level, counts = [table.get(h >> off & mask, 0) for (off, mask), table in slots], []
        # carry-save adder tree: three planes of one weight become their
        # sum at that weight and their carry at the next
        while level:
            carries = []
            while len(level) > 2:
                a, b, c = level.pop(), level.pop(), level.pop()
                u = a ^ b
                level.append(u ^ c)
                carries.append(a & b | u & c)
            if len(level) == 2:
                a, b = level
                level = [a ^ b]
                carries.append(a & b)
            counts.append(level[0])
            level = carries
        live = 0  # the x whose count is not nused: L[x] != h
        for b, plane in enumerate(counts):
            live |= full ^ plane if nused >> b & 1 else plane
        if not live:
            continue
        most = 0
        for b in reversed(range(len(counts))):
            if top := live & counts[b]:
                live = top
                most |= 1 << b
        if nused - most < best:
            best = nused - most
            if best == 1:
                break
    return best
