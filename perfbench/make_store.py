"""Make the base store for the store_replay workload.

    python3 perfbench/make_store.py STORE VALUES SURFACE:TWIST:BOUND ...

Evaluates every orbit representative of the nef-and-big classes up to each
bound with a store-off evaluator, then writes the memo of every evaluator
to STORE through the program's own ``Evaluator.dump`` and ``cache_save``,
and the values it computed to VALUES as JSON.  It runs in its own process
so that its memory and heap do not colour the timed process.
"""

import json
import sys

import oracle
import workloads


def main(argv):
    store_path, values_path, *scans = argv
    workloads.require_program()
    from welschinger import Evaluator, cache_save, invariants, parse_surface
    from welschinger.picard import DivisorClass

    store = {}
    values = {}
    for scan in scans:
        surface, twist, bound = scan.split(":")
        spec = parse_surface(surface, twist=twist)
        ev = Evaluator(spec)
        values[surface] = [
            [rep, str(invariants.welschinger(spec, DivisorClass(rep), ev))]
            for rep in oracle.nef_big_orbits(surface, int(bound))
        ]
        ev.dump(store)
    cache_save(store, store_path)
    with open(values_path, "w", encoding="utf-8") as fh:
        json.dump(values, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
