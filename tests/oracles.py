"""Brute-force reference implementations used as independent oracles.

Everything here is written straight from the definitional formulas, favouring
obvious loops over clever vectorisation, and deliberately shares no code with
the package under test. The record-level helpers at the end are the
exception: they go one record at a time through the package's record
coercion and validation, the reference that the column paths must match.

Data conventions:
  * a "grid" is a dict {(item, annotator): label} (complete or sparse)
  * "units" is a list of label lists, one list per item (pairable values)
"""

import re
from dataclasses import replace
from datetime import datetime, timedelta
from itertools import combinations, product

import numpy as np

from relistab import AnnotationRecord, validate_dataset
from relistab.core import coerce_fields, raw_fields


def brute_percent_agreement(units):
    """Mean over units of (agreeing unordered pairs / total unordered pairs)."""
    rates = []
    for labels in units:
        if len(labels) < 2:
            continue
        pairs = list(combinations(labels, 2))
        rates.append(sum(1 for a, b in pairs if a == b) / len(pairs))
    if not rates:
        raise ValueError("no unit has >= 2 labels")
    return sum(rates) / len(rates)


def brute_cohens_kappa(labels_a, labels_b):
    """kappa = (Po - Pe) / (1 - Pe), Pe from per-annotator marginals."""
    assert len(labels_a) == len(labels_b) and labels_a
    n = len(labels_a)
    po = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    cats = sorted(set(labels_a) | set(labels_b))
    pe = sum(
        (labels_a.count(c) / n) * (labels_b.count(c) / n) for c in cats
    )
    if pe == 1.0:
        if po == 1.0:
            return 1.0
        raise ValueError("chance-degenerate with imperfect agreement")
    return (po - pe) / (1.0 - pe)


def brute_fleiss_kappa(items):
    """kappa = (Pbar - PbarE) / (1 - PbarE); items: list of equal-length label lists."""
    assert items
    n = len(items[0])
    assert all(len(labels) == n for labels in items) and n >= 2
    cats = sorted({c for labels in items for c in labels})
    p_i = []
    totals = {c: 0 for c in cats}
    for labels in items:
        agree = sum(labels.count(c) * (labels.count(c) - 1) for c in cats)
        p_i.append(agree / (n * (n - 1)))
        for c in cats:
            totals[c] += labels.count(c)
    p_bar = sum(p_i) / len(items)
    grand = n * len(items)
    p_bar_e = sum((totals[c] / grand) ** 2 for c in cats)
    if p_bar_e == 1.0:
        if p_bar == 1.0:
            return 1.0
        raise ValueError("chance-degenerate with imperfect agreement")
    return (p_bar - p_bar_e) / (1.0 - p_bar_e)


def brute_krippendorff_alpha(units, delta2=None):
    """alpha = 1 - Do/De by direct enumeration of ordered value pairs.

    Do counts within-unit ordered pairs weighted by 1/(m_u - 1); De counts
    ordered pairs over the pooled pairable values (i != j as instances).
    """
    if delta2 is None:
        delta2 = lambda a, b: 0.0 if a == b else 1.0
    pairable = [labels for labels in units if len(labels) >= 2]
    if not pairable:
        raise ValueError("no pairable values")
    n = sum(len(labels) for labels in pairable)
    d_o = 0.0
    for labels in pairable:
        m = len(labels)
        for i in range(m):
            for j in range(m):
                if i != j:
                    d_o += delta2(labels[i], labels[j]) / (m - 1)
    d_o /= n
    pooled = [v for labels in pairable for v in labels]
    d_e = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                d_e += delta2(pooled[i], pooled[j])
    d_e /= n * (n - 1)
    if d_e == 0.0:
        return 1.0
    return 1.0 - d_o / d_e


def brute_icc_oneway(matrix):
    """ICC(1,1) from explicit one-way ANOVA sums; rows = items, cols = raters."""
    m = np.asarray(matrix, dtype=float)
    n, k = m.shape
    assert n >= 2 and k >= 2
    row_means = m.mean(axis=1)
    grand = m.mean()
    ss_between = k * ((row_means - grand) ** 2).sum()
    ms_between = ss_between / (n - 1)
    ss_within = ((m - row_means[:, None]) ** 2).sum()
    ms_within = ss_within / (n * (k - 1))
    denom = ms_between + (k - 1) * ms_within
    if denom == 0.0:
        raise ValueError("no variance")
    return (ms_between - ms_within) / denom


def brute_icc_twoway(matrix):
    """ICC(2,1) from explicit two-way ANOVA sums; rows = items, cols = raters."""
    m = np.asarray(matrix, dtype=float)
    n, k = m.shape
    assert n >= 2 and k >= 2
    grand = m.mean()
    row_means = m.mean(axis=1)
    col_means = m.mean(axis=0)
    ss_rows = k * ((row_means - grand) ** 2).sum()
    ss_cols = n * ((col_means - grand) ** 2).sum()
    ss_total = ((m - grand) ** 2).sum()
    ss_err = ss_total - ss_rows - ss_cols
    ms_rows = ss_rows / (n - 1)
    ms_cols = ss_cols / (k - 1)
    ms_err = ss_err / ((n - 1) * (k - 1))
    denom = ms_rows + (k - 1) * ms_err + k * (ms_cols - ms_err) / n
    if denom == 0.0:
        raise ValueError("no variance")
    return (ms_rows - ms_err) / denom


def pearson_phi(table):
    """|phi| oracle: Pearson r of the two 0/1 indicator encodings of the items."""
    a, b, c, d = table
    x = [1] * (a + b) + [0] * (c + d)          # 1 = stable
    y = [1] * a + [0] * b + [1] * c + [0] * d  # 1 = subjective
    return float(np.corrcoef(x, y)[0, 1])


def enumerate_complete_grids(max_items=3, max_annotators=3, categories=("x", "y")):
    """Yield every complete grid with <= max_items x <= max_annotators cells."""
    for n_items in range(1, max_items + 1):
        for n_annot in range(2, max_annotators + 1):
            cells = [(f"i{i}", f"a{j}") for i in range(n_items) for j in range(n_annot)]
            for assignment in product(categories, repeat=len(cells)):
                yield dict(zip(cells, assignment))


def grid_units(grid):
    """Group a grid's labels by item, in item order."""
    units = {}
    for (item, _annotator), label in sorted(grid.items()):
        units.setdefault(item, []).append(label)
    return list(units.values())


def brute_repeat_pairs(records, pairing):
    """Repeat pairs by walking each (item, annotator) cell's round history.

    ``records`` have ``item_id``, ``annotator_id``, ``round``, ``label`` and
    ``timestamp`` attributes. Returns ``(item, annotator, first label,
    second label, first round, second round, interval or None)`` tuples in
    sorted (item, annotator) order, then in the pairing's round order; an
    empty list when nobody relabelled anything. A pair whose later round
    carries the earlier timestamp raises ValueError.
    """
    cells = {}
    for rec in records:
        cells.setdefault((rec.item_id, rec.annotator_id), []).append(
            (rec.round, rec.label, rec.timestamp))
    pairs = []
    for (item, annotator), history in sorted(cells.items()):
        history.sort(key=lambda entry: entry[0])
        n = len(history)
        if pairing == "consecutive":
            combos = [(i, i + 1) for i in range(n - 1)]
        elif pairing == "first_last":
            combos = [(0, n - 1)] if n >= 2 else []
        else:
            combos = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for i, j in combos:
            (r1, l1, t1), (r2, l2, t2) = history[i], history[j]
            interval = None
            if t1 is not None and t2 is not None:
                interval = t2 - t1
                if interval < 0:
                    raise ValueError(
                        f"round {r2} predates round {r1} for ({item!r}, {annotator!r})")
            pairs.append((item, annotator, l1, l2, r1, r2, interval))
    return pairs


def brute_item_votes(records):
    """Per item, one vote per annotator who labelled it in >= 2 rounds: True
    iff every label they gave it is the same."""
    cells = {}
    for rec in records:
        cells.setdefault((rec.item_id, rec.annotator_id), []).append(rec.label)
    votes = {}
    for (item, _annotator), labels in cells.items():
        if len(labels) >= 2:
            votes.setdefault(item, []).append(len(set(labels)) == 1)
    return votes


def brute_average_ranks(values):
    """1-based ranks by sorting position, each run of equal values (``==``)
    given the mean of the positions it covers."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def brute_spearman(x, y):
    """Pearson's r of the average ranks; 0.0 when either side is constant."""
    rx, ry = brute_average_ranks(x), brute_average_ranks(y)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return 0.0
    return sxy / (sxx * syy) ** 0.5


def brute_trend_p(flags_by_bucket, seed, replicates):
    """Permutation p-value of the Spearman trend of bucket consistency.

    ``flags_by_bucket`` lists each occupied bucket's consistency flags in
    bucket order. Replicate ``r`` shuffles the concatenated flags with
    ``default_rng([seed, r]).permutation`` and cuts them back into buckets
    of the same sizes; it hits when its |rho| reaches the observed |rho|
    less 1e-12. p = (1 + hits) / (1 + replicates).
    """
    sizes = [len(bucket) for bucket in flags_by_bucket]

    def trend(flags):
        rates, start = [], 0
        for size in sizes:
            rates.append(sum(flags[start:start + size]) / size)
            start += size
        return brute_spearman(list(range(len(sizes))), rates)

    flags = [float(flag) for bucket in flags_by_bucket for flag in bucket]
    observed = abs(trend(flags))
    hits = 0
    for r in range(replicates):
        shuffled = np.random.default_rng([seed, r]).permutation(np.array(flags))
        if abs(trend(shuffled.tolist())) >= observed - 1e-12:
            hits += 1
    return (1 + hits) / (1 + replicates)


#: RFC 3339 section 5.6 ``date-time``, ASCII digits only
RFC3339 = re.compile(r"(\d{4})-(\d\d)-(\d\d)[Tt ](\d\d):(\d\d):(\d\d)(?:\.(\d+))?"
                     r"(?:[Zz]|([+-])(\d\d):(\d\d))?", re.ASCII)


def rfc3339_seconds(text):
    """POSIX epoch seconds of RFC 3339 ``date-time`` text, surrounding
    whitespace stripped; ValueError if it is none. The fields go into the
    ``datetime`` constructor (which refuses year 0, a leap second and a day
    past its month), the offset is subtracted as a ``timedelta``, and the
    whole microseconds are divided by 10**6 once; the first six fraction
    digits are read."""
    match = RFC3339.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"{text!r} is not RFC 3339 date-time text")
    *fields, fraction, sign, hh, mm = match.groups()
    local = datetime(*map(int, fields), int((fraction or "0")[:6].ljust(6, "0")))
    offset = timedelta(0)
    if sign:
        if int(hh) > 23 or int(mm) > 59:
            raise ValueError(f"{text!r} has an offset past 23:59")
        offset = timedelta(hours=int(hh), minutes=int(mm)) * (-1 if sign == "-" else 1)
    micros = (local - datetime(1970, 1, 1) - offset) // timedelta(microseconds=1)
    return micros / 10**6


def timestamp_field(value):
    """What a record's timestamp field holds, as epoch seconds or None;
    ValueError, TypeError or OverflowError if it is refused. None and blank
    text are none; a number is itself; text is ASCII number text without
    ``_`` or RFC 3339 text. The caller checks that the result is finite."""
    if not isinstance(value, str):
        return None if value is None else float(value)
    text = value.strip()
    if not text:
        return None
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    return rfc3339_seconds(text)


def coerce_record(raw):
    """A field mapping as an AnnotationRecord, one record at a time."""
    return AnnotationRecord(*coerce_fields(*raw_fields(raw)))


def brute_resample(aset, item_ids):
    """``aset`` restricted to ``item_ids`` with replacement, rebuilt record
    by record through ``validate_dataset``: each draw's records in set
    order, the k-th repeat of an item renamed ``item~k`` (plus ``~`` until
    it differs from every source item id)."""
    by_item, seen, records = {}, {}, []
    for rec in aset.records:
        by_item.setdefault(rec.item_id, []).append(rec)
    for item in item_ids:
        k = seen[item] = seen.get(item, -1) + 1
        new_id = f"{item}~{k}" if k else item
        while k and new_id in by_item:
            new_id += "~"
        records += [replace(rec, item_id=new_id) for rec in by_item[item]]
    return validate_dataset(records, aset.schema)
