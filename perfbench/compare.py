"""``python -m perfbench compare BASE.json NEW.json``.

Per workload and end-to-end metric: base, new, the ratio with its base,
the bound, and a verdict.  ``regressed``: worse than the base by more
than the bound.  ``unresolved``: the in-run noise of either side
(``noise`` in the result file: how far the metric moves when any one
pass is dropped) is wider than the bound, so neither a regression nor
its absence can be claimed.  Metrics on the simulated clock compare at
1e-9: any move in the worse direction is a regression, and a move in the
better direction is printed as ``ok (moved)`` because a host-speed change
must leave them untouched.
"""

import json
import sys

from perfbench import metrics


def load_set(path):
    """``{workload: result document}`` from a single or merged file."""
    with open(path) as handle:
        payload = json.load(handle)
    if "workloads" in payload:
        return payload["workloads"]
    return {payload["workload"]: payload}


def judge(metric, base, new, noise):
    """``(ratio, verdict)`` of one metric; ``noise`` is a share or None."""
    ratio = new / base if base else (1.0 if new == base else float("inf"))
    if metric.better == "lower":
        worse_by = (new - base) / base if base else float(new > base)
    else:
        worse_by = (base - new) / base if base else float(new < base)
    if metric.exact:
        if abs(new - base) <= metrics.EXACT * max(abs(base), abs(new)):
            return ratio, "ok"
        return ratio, "regressed" if worse_by > 0 else "ok (moved)"
    if worse_by > metric.bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    if noise is not None and noise > metric.bound and metric.bound > 0:
        verdict = "unresolved"
    return ratio, verdict


def compare(base_set, new_set, stream=None):
    """Print the table; returns the number of regressions."""
    stream = stream or sys.stdout
    regressions = 0
    header = (f"{'workload':14s} {'metric':26s} {'base':>12s} {'new':>12s} "
              f"{'new/base':>9s} {'bound':>7s}  verdict")
    print(header, file=stream)
    for workload in metrics.WORKLOADS:
        base_doc, new_doc = base_set.get(workload), new_set.get(workload)
        if base_doc is None or new_doc is None:
            print(f"{workload:14s} missing from "
                  f"{'base' if base_doc is None else 'new'} set",
                  file=stream)
            regressions += 1
            continue
        for name, metric in metrics.END_TO_END.items():
            base = base_doc["end_to_end"].get(name)
            new = new_doc["end_to_end"].get(name)
            if base is None or new is None:
                continue
            noises = [doc.get("noise", {}).get(name)
                      for doc in (base_doc, new_doc)]
            noises = [noise for noise in noises if noise is not None]
            ratio, verdict = judge(metric, base["value"], new["value"],
                                   max(noises) if noises else None)
            if verdict == "regressed":
                regressions += 1
            bound = "exact" if metric.exact else f"{metric.bound:.0%}"
            print(f"{workload:14s} {name:26s} {base['value']:12.6g} "
                  f"{new['value']:12.6g} {ratio:9.4f} {bound:>7s}  "
                  f"{verdict}", file=stream)
    return regressions


def main(argv):
    if len(argv) != 2:
        print("usage: python -m perfbench compare BASE.json NEW.json",
              file=sys.stderr)
        return 2
    regressions = compare(load_set(argv[0]), load_set(argv[1]))
    if regressions:
        print(f"{regressions} regression(s)", file=sys.stderr)
        return 1
    return 0
