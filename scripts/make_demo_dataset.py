#!/usr/bin/env python3
"""Write a seeded synthetic document-instruction dataset for offline runs."""

import argparse
from pathlib import Path

from demo_corpus import make_dataset, write_dataset


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_data", help="output directory")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pages", type=int, default=40)
    ap.add_argument("--records-per-page", type=int, default=5)
    args = ap.parse_args(argv)

    ds = make_dataset(seed=args.seed, n_pages=args.pages,
                      records_per_page=args.records_per_page)
    out = Path(args.out)
    write_dataset(ds, out / "records.jsonl")
    print(f"wrote {len(ds.records)} records over {len(ds.pages)} pages to {out}/")


if __name__ == "__main__":
    main()
