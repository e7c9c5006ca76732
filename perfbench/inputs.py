"""Seeded inputs for the benchmark workloads.

Every input the program sees is made here from the workload seed: C
sources from the :mod:`repro.eval.kernels` generators at seeded sizes,
tile parameters and design-point grids.  The same seed always gives
the same inputs.

Run-to-run steadiness comes from *stratified* streams: the program
pool is sorted by family and size and cut into strata of similar cost;
one round of a stream takes one program from every stratum.  Any
number of whole rounds therefore has the same cost mix whatever the
seed, while the programs themselves differ.

The first round is the *reference round*: the same programs for every
seed (seed 0 draws it).  Quality sums and layer counts are taken over
it, so they compare exactly across seeds; the seed draws every round
after it, the order of operations and the verification inputs.
"""

from __future__ import annotations

import random

from repro.dse.space import DesignPoint, DesignSpace
from repro.eval import kernels

#: Kernel generators by family, with every size the compile pool
#: draws from (small to large).  The ten families are the DSP kernels
#: the FPFA targets; every (family, size) pair is a distinct program.
FAMILIES = {
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
    "fft": (kernels.fft_butterflies_source,
            [(n,) for n in range(1, 25)]),
    "horner": (kernels.horner_source, [(n,) for n in range(1, 65)]),
    "dct": (lambda: kernels.dct4_source(), [()]),
}

#: Programs per stratum of a stratified stream.
STRATUM = 7

#: The sweep-grid and fleet-sweep kernels: mid-size programs of
#: similar cost; the seed orders them in every cycle.
SWEEP_KERNELS = (("fir", (22,)), ("conv", (9, 3)), ("corr", (10, 3)))
FLEET_KERNELS = (("dot", (20,)), ("iir", (7,)), ("fft", (4,)))

#: Seed that draws every reference round.
REFERENCE_SEED = 0

#: The tile grid every sweep-grid point is drawn from
#: (6 x 4 x 3 = 72 points).
SWEEP_GRID = {"n_pps": [2, 3, 4, 5, 6, 8], "n_buses": [4, 6, 8, 10],
              "library": ["single-op", "two-level", "mac"]}
#: The fleet-sweep grid (8 x 4 x 2 = 64 points).
FLEET_GRID = {"n_pps": [1, 2, 3, 4, 5, 6, 7, 8],
              "n_buses": [4, 6, 8, 10],
              "library": ["two-level", "mac"]}
#: Tile choices a service-mixed map job draws from.
SERVICE_TILES = [{"pps": pps, "buses": buses, "library": library}
                 for pps in (2, 3, 4, 5, 6, 8)
                 for buses in (4, 6, 10)
                 for library in ("two-level", "mac")]

#: A program outside every pool: used only to warm a daemon up, so
#: the warm-up never pre-fills a store with a measured request.
WARMUP_SOURCE = "void main() { y = x * 3 + 1; }\n"


def source(family: str, size: tuple) -> str:
    generator, _ = FAMILIES[family]
    return generator(*size)


def program_pool() -> list[tuple[str, tuple]]:
    """Every (family, size) of the compile pool, sorted by cost
    proxy: family, then size."""
    return [(family, size) for family, (_, sizes) in FAMILIES.items()
            for size in sizes]


def stratified_stream(pool: list, seed: int) -> list:
    """*pool* reordered into rounds of one program per stratum.  The
    first round is the reference round; later rounds are drawn from
    what is left of each stratum, in seeded order."""
    reference = random.Random(REFERENCE_SEED)
    rng = random.Random(seed)
    strata = []
    for start in range(0, len(pool), STRATUM):
        stratum = pool[start:start + STRATUM]
        first = stratum.pop(reference.randrange(len(stratum)))
        rng.shuffle(stratum)
        strata.append([first] + stratum)
    stream = []
    for round_index in range(STRATUM):
        order = [stratum for stratum in strata
                 if round_index < len(stratum)]
        (rng if round_index else reference).shuffle(order)
        stream.extend(stratum[round_index] for stratum in order)
    return stream


def round_length(pool: list) -> int:
    """Programs in the reference round of a stratified stream."""
    return (len(pool) + STRATUM - 1) // STRATUM


def sweep_kernels(table) -> list[tuple]:
    """``(name, source)`` for every kernel of *table*."""
    return [(f"{family}{'x'.join(map(str, size))}", source(family, size))
            for family, size in table]


def grid(dimensions: dict) -> list[DesignPoint]:
    return DesignSpace(dimensions).grid()
