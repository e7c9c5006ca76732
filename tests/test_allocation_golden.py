"""Golden test: the allocator's output is pinned case by case.

Each case maps one kernel onto one tile with one set of allocator
options and digests everything allocation decides: the program
listing, the data and output layouts and the :class:`AllocationStats`
— or the message of the :class:`AllocationError` it raised.  The
digests in ``tests/fixtures/allocation_golden.json`` were taken from
the dict-and-tuple allocator that preceded the interned-integer one,
so any change to a decision the allocator makes shows up here as the
id of the first case that differs.

The corpus covers the benchmark's sweep and fleet kernels over their
whole tile grids, the ablation options on a few tiles, and a strided
sample of the compile pool on small tiles that hit the port, bus,
register and memory limits (and some allocation failures).

Regenerate the fixture (only when a change of allocator decisions is
intended) or digest the larger stride-8 corpus with::

    PYTHONPATH=src python -m tests.test_allocation_golden --write
    PYTHONPATH=src python -m tests.test_allocation_golden --full
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
from pathlib import Path

from repro.arch.params import TileParams
from repro.arch.templates import TemplateLibrary
from repro.core.allocation import AllocationError
from repro.core.pipeline import compile_frontend, map_frontend
from repro.eval import kernels

FIXTURE = Path(__file__).parent / "fixtures" / "allocation_golden.json"

#: The sweep-grid and fleet-sweep kernels with their tile grids.
GRID_KERNELS = {
    "fir22": (kernels.fir_source(22), "sweep"),
    "conv9x3": (kernels.convolution_source(9, 3), "sweep"),
    "corr10x3": (kernels.correlation_source(10, 3), "sweep"),
    "dot20": (kernels.dot_source(20), "fleet"),
    "iir7": (kernels.iir_biquad_source(7), "fleet"),
    "fft4": (kernels.fft_butterflies_source(4), "fleet"),
}
GRIDS = {
    "sweep": list(itertools.product([2, 3, 4, 5, 6, 8], [4, 6, 8, 10],
                                    ["single-op", "two-level", "mac"])),
    "fleet": list(itertools.product([1, 2, 3, 4, 5, 6, 7, 8],
                                    [4, 6, 8, 10], ["two-level", "mac"])),
}

#: Allocator option sets: the default and the locality ablations.
OPTIONS = {
    "default": {},
    "nobypass": {"enable_bypass": False},
    "noreuse": {"enable_reuse": False},
    "window1": {"stage_window": 1},
    "memonly": {"enable_bypass": False, "enable_reuse": False},
}

#: Port/capacity profiles of the small tiles: few buses and a small
#: memory; extra read and bank-write ports; extra memory-write ports.
PROFILES = [
    {"n_buses": 2, "memory_words": 16},
    {"n_buses": 4, "mem_read_ports": 2, "bank_write_ports": 2},
    {"n_buses": 6, "memory_words": 64, "mem_write_ports": 2},
]
#: 27 small tiles: PPs x registers per bank x profile.
SMALL_TILES = [TileParams(n_pps=pps, regs_per_bank=regs, **profile)
               for pps in (1, 2, 3) for regs in (1, 2, 4)
               for profile in PROFILES]

#: The compile pool: every (family, size) program, cheapest first.
POOL_FAMILIES = {
    "fir": (kernels.fir_source, [(n,) for n in range(2, 129)]),
    "dot": (kernels.dot_source, [(n,) for n in range(2, 129)]),
    "saxpy": (kernels.saxpy_source, [(n,) for n in range(2, 65)]),
    "conv": (kernels.convolution_source,
             [(length, taps) for taps in range(2, 7)
              for length in range(taps + 1, 33)]),
    "corr": (kernels.correlation_source,
             [(length, lags) for lags in range(1, 7)
              for length in range(lags + 1, 33)]),
    "matmul": (kernels.matmul_source, [(n,) for n in range(2, 6)]),
    "iir": (kernels.iir_biquad_source, [(n,) for n in range(1, 25)]),
    "fft": (kernels.fft_butterflies_source, [(n,) for n in range(1, 25)]),
    "horner": (kernels.horner_source, [(n,) for n in range(1, 65)]),
    "dct": (lambda: kernels.dct4_source(), [()]),
}
LIBRARIES = ("two-level", "mac", "single-op")


def pool(stride: int) -> list[tuple[str, str]]:
    """Every *stride*-th compile-pool program as ``(name, source)``."""
    programs = [(family, size)
                for family, (_, sizes) in POOL_FAMILIES.items()
                for size in sizes]
    return [(f"{family}{'x'.join(map(str, size))}",
             POOL_FAMILIES[family][0](*size))
            for family, size in programs[::stride]]


def corpus(full: bool = False):
    """Yield ``(case id, source, params, library, options)``.

    The tier-1 corpus takes every grid point with default options,
    three single ablations on every 23rd grid point, and every 64th
    pool program on nine small tiles with the default and the
    memory-only options; ``full`` takes every option set on
    every grid point and every 8th pool program on all 27 small tiles
    with all five option sets.
    """
    for name, (source, grid) in GRID_KERNELS.items():
        for index, (pps, buses, library) in enumerate(GRIDS[grid]):
            params = TileParams(n_pps=pps, n_buses=buses)
            for option_name, options in OPTIONS.items():
                ablation_tile = index % 23 == 0
                if not full and option_name != "default" and (
                        option_name == "memonly" or not ablation_tile):
                    continue
                yield (f"{name}/{pps}pp{buses}b-{library}/{option_name}",
                       source, params, library, options)
    tiles = SMALL_TILES if full else SMALL_TILES[::3]
    option_sets = OPTIONS if full else {"default": {}, "memonly":
                                        OPTIONS["memonly"]}
    for index, (name, source) in enumerate(pool(8 if full else 64)):
        library = LIBRARIES[index % len(LIBRARIES)]
        for tile_index, params in enumerate(tiles):
            for option_name, options in option_sets.items():
                yield (f"{name}/small{tile_index}-{library}/{option_name}",
                       source, params, library, options)


def case_text(frontend, params: TileParams, library: str,
              options: dict) -> str:
    """What one allocation decided: listing, layouts and stats, or the
    message of the allocation error."""
    try:
        report = map_frontend(frontend, params,
                              TemplateLibrary.stock()[library], **options)
    except AllocationError as error:
        return f"AllocationError: {error}"
    program = report.program
    return "\n".join([
        program.listing(),
        repr([(str(address), str(loc)) for address, loc
              in program.data_layout.items()]),
        repr([(str(address), str(loc)) for address, loc
              in program.output_layout.items()]),
        repr(report.alloc_stats),
    ])


def digests(full: bool = False) -> tuple[dict[str, str], int]:
    """Per-case digests of the corpus and its allocation-error count."""
    frontends: dict[str, object] = {}
    cases = {}
    errors = 0
    for case_id, source, params, library, options in corpus(full):
        if source not in frontends:
            frontends[source] = compile_frontend(source)
        text = case_text(frontends[source], params, library, options)
        errors += text.startswith("AllocationError")
        cases[case_id] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return cases, errors


def corpus_digest(cases: dict[str, str]) -> str:
    text = "\n".join(f"{case_id} {digest}"
                     for case_id, digest in sorted(cases.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def test_allocations_match_the_golden_digests():
    expected = json.loads(FIXTURE.read_text())
    actual, errors = digests()
    assert sorted(actual) == sorted(expected["cases"])
    differing = [case_id for case_id in expected["cases"]
                 if actual[case_id] != expected["cases"][case_id]]
    assert not differing, (f"{len(differing)} allocation(s) changed, "
                           f"first: {differing[0]}")
    assert errors == expected["allocation_errors"] > 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", action="store_true",
                       help="rewrite the tier-1 fixture")
    group.add_argument("--full", action="store_true",
                       help="print the digest of the stride-8 corpus")
    args = parser.parse_args()
    cases, errors = digests(full=args.full)
    if args.full:
        print(f"{len(cases)} allocations, {errors} allocation errors, "
              f"sha256 {corpus_digest(cases)}")
        return
    FIXTURE.write_text(json.dumps(
        {"digest": corpus_digest(cases), "allocation_errors": errors,
         "cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases ({errors} allocation errors) "
          f"to {FIXTURE}")


if __name__ == "__main__":
    main()
