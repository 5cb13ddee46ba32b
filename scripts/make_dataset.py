#!/usr/bin/env python3
"""Generate synthetic labeled stream files for the experiments."""

import argparse

from logsigrnn import gen_synthetic, save_streams


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", help="stream file to write (JSON lines)")
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--min-length", type=int, default=20)
    parser.add_argument("--max-length", type=int, default=120)
    parser.add_argument("--noise", type=float, default=0.02)
    parser.add_argument("--layout", choices=("path", "skeleton"), default="path")
    parser.add_argument("--joints", type=int, default=5)
    args = parser.parse_args()

    try:
        data = gen_synthetic(
            args.count,
            seed=args.seed,
            length_range=(args.min_length, args.max_length),
            noise=args.noise,
            layout=args.layout,
            joints=args.joints,
        )
    except ValueError as exc:
        parser.error(str(exc))
    save_streams(data, args.output)
    print(f"wrote {len(data)} samples to {args.output}")


if __name__ == "__main__":
    main()
