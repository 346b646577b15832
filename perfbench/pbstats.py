"""Statistics shared by run.py, compare.py and the benchmark's tests.

Everything here is plain Python over lists of numbers, so the rules the
benchmark reports by -- the tail percentile, backlog growth on a ladder
rung, layer self times from spans, and the parent-vs-change verdict --
can be unit-tested on synthetic inputs.
"""

import bisect
import math
import statistics

INF = float("inf")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean_of_medians(xs, groups):
    """Mean over the groups of the median of each group's samples: a run's
    cost per operation when its operations cycle through several inputs of
    different cost, whatever the number of samples of each."""
    by = {}
    for x, g in zip(xs, groups):
        by.setdefault(g, []).append(x)
    return statistics.fmean(median(v) for v in by.values()) if by else 0.0


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        v = xs[0] if xs else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    """Interquartile range as a share of the median (0 for a 0 median)."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else 0.0


# ---- tail latency -----------------------------------------------------------

BEYOND = 10  # samples that must lie beyond the tail value


def tail_index(n):
    """Index (into the ascending samples) of the highest percentile with at
    least ten samples beyond it. With fewer than 21 samples that percentile
    would not reach the median, and the tail is the maximum instead."""
    if n <= 0:
        raise ValueError("no samples")
    return n - 1 - BEYOND if n > 2 * BEYOND else n - 1


def tail_percentile(n):
    """The percentile tail_index(n) stands for: share of samples at or
    below it, in percent."""
    return 100.0 * (tail_index(n) + 1) / n


def tail(xs):
    return sorted(xs)[tail_index(len(xs))]


# ---- open-loop rungs --------------------------------------------------------


def latencies(due, done, status):
    """Latency of each request from when it was due; a request that failed,
    mismatched or was never sent counts as infinitely late."""
    return [d1 - d0 if s == 1 else INF for d0, d1, s in zip(due, done, status)]


def outstanding(due, done, status):
    """Requests due but not yet answered, sampled at each arrival."""
    finished = sorted(d1 for d1, s in zip(done, status) if s == 1)
    out = []
    for i, t in enumerate(due):
        arrived = i + 1  # due times are ascending
        answered = bisect.bisect_right(finished, t)
        out.append(arrived - answered)
    return out


def backlog_grows(backlog, slack):
    """True when the backlog in the last quarter of a rung exceeds the one
    in the first quarter by more than `slack` requests (at least the number
    of connections) or 5% of the rung's requests, whichever is larger."""
    n = len(backlog)
    if n < 8:
        return False
    q = n // 4
    first = sum(backlog[:q]) / q
    last = sum(backlog[-q:]) / q
    return last - first > max(slack, 0.05 * n)


def rung_summary(due, done, status, limit_ms, slack):
    lat = latencies(due, done, status)
    t = tail(lat)
    grows = backlog_grows(outstanding(due, done, status), slack)
    return {
        "requests": len(lat),
        "p50_ms": median(lat),
        "tail_ms": t,
        "tail_pct": tail_percentile(len(lat)),
        "backlog_grows": grows,
        "passes": t <= limit_ms and not grows,
    }


def max_passing_rate(rates, passes):
    """Highest rung rate that meets the limit without a growing backlog."""
    ok = [r for r, p in zip(rates, passes) if p]
    return max(ok) if ok else 0.0


# ---- spans ------------------------------------------------------------------


def self_times(spans):
    """Self time (ms) of every span: its duration minus the part covered by
    its children. Returns a list parallel to `spans`."""
    dur = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans]
    own = list(dur)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            own[s["parent"]] -= dur[i]
    return own


def root_of(spans, i):
    while spans[i]["parent"] >= 0:
        i = spans[i]["parent"]
    return i


def per_root_self(spans):
    """{span name: [self ms summed per root span]} -- e.g. per flow row."""
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s["parent"] < 0]
    index = {r: k for k, r in enumerate(roots)}
    out = {}
    for i, s in enumerate(spans):
        acc = out.setdefault(s["name"], [0.0] * len(roots))
        acc[index[root_of(spans, i)]] += own[i]
    return out


def by_request(spans, name):
    """{request id: duration ms} of the spans called `name`."""
    return {s["request"]: (s["end_ns"] - s["start_ns"]) / 1e6
            for s in spans if s["name"] == name}


# ---- parent vs change -------------------------------------------------------


def verdict(parent, change, better, bound):
    """Section 8 of the choosing-metrics guide, on one metric of one
    workload. `parent` and `change` are the run values in the order the
    alternating pairs were run. Returns (verdict, detail dict).

    gain         the change wins >= 9/10 of the pairs (ties count for
                 neither) and the medians differ by more than the parent's
                 interquartile range; at least 10 pairs are needed.
    unresolved   the parent's own spread exceeds the bound, unless every
                 change run beats every parent run.
    regression   the change's median is worse than the parent's by more
                 than `bound` (a share of the parent's median).
    same         none of the above.
    """
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = median(parent), median(change)
    pq1, _, pq3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gap = sign * (cm - pm)
    detail = {
        "parent_median": pm, "change_median": cm, "pairs": len(pairs),
        "wins": wins, "parent_iqr": pq3 - pq1,
        "change_pct": 100.0 * (cm - pm) / pm if pm else 0.0,
    }
    all_better = bool(parent) and bool(change) and all(
        sign * (c - p) > 0 for p in parent for c in change)
    if (len(pairs) >= 10 and wins >= math.ceil(0.9 * len(pairs))
            and gap > pq3 - pq1 and gap > 0):
        return "gain", detail
    if pm and spread(parent) > bound and not all_better:
        return "unresolved", detail
    if pm and -gap > bound * abs(pm):
        return "regression", detail
    return "same", detail
