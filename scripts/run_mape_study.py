#!/usr/bin/env python3
"""Missing-data study: feature error of (log-)signatures under frame drops.

Runs 1000 trials on a fixed 53-sample pen-trajectory-like polyline, each
dropping up to 16 interior samples, and reports the mean absolute
percentage error of the log-signature against the signature at the same
truncation degree.
"""

import argparse

from logsigrnn import mape_drop_study


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=3)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--max-drop", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    try:
        out = mape_drop_study(
            degree=args.degree, trials=args.trials, max_drop=args.max_drop, seed=args.seed
        )
    except ValueError as exc:
        parser.error(str(exc))
    print(f"degree {out['degree']}, {out['trials']} trials, <= {out['max_drop']} dropped")
    print(f"mean log-signature MAPE: {out['mean_logsig_mape']:.4f}")
    print(f"mean signature MAPE:     {out['mean_sig_mape']:.4f}")
    print(f"worst trial (log-signature): {out['logsig_mape'].max():.4f}")


if __name__ == "__main__":
    main()
