#!/usr/bin/env python3
"""Run every estimate probe at the probe resolution and at doubled
resolution, printing the max-ratio stability factor per catalog entry."""

from gkdvlab.probes import ProbeResolution, describe_estimates, estimate_ids, run_estimates


def main(n_trials=100, eps=0.05, seed=1):
    for line in describe_estimates(eps):
        print(line)
    print()
    base = ProbeResolution()
    fine = base.doubled()
    print(f"{'id':18s} {'max_ratio':>12s} {'doubled':>12s} {'change':>8s}")
    ids = estimate_ids(eps)
    base_reports = run_estimates(ids, eps=eps, resolution=base, n_trials=n_trials, seed=seed)
    fine_reports = run_estimates(ids, eps=eps, resolution=fine, n_trials=n_trials, seed=seed)
    for eid in ids:
        r1, r2 = base_reports[eid], fine_reports[eid]
        change = max(r2.max_ratio / r1.max_ratio, r1.max_ratio / r2.max_ratio)
        print(f"{eid:18s} {r1.max_ratio:12.5g} {r2.max_ratio:12.5g} x{change:7.3f}")


if __name__ == "__main__":
    main()
