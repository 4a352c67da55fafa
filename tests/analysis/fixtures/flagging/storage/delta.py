"""Flagging fixture: a per-tag merge that rebuilds the tag as a Python dict."""


def merged_counts(base, extra_counts):
    counts = {}
    if base is not None and len(base):
        counts = dict(zip(base.item_ids.tolist(), base.frequencies.tolist()))
    for item_id, extra in extra_counts.items():
        counts[item_id] = counts.get(item_id, 0) + int(extra)
    return counts
