"""Full-chip hotspot scan: tile a layout into clips and sweep a detector.

Run with::

    python examples/full_chip_scan.py

The intro scenario of every hotspot-detection paper: a routed block is too
large for exhaustive lithography simulation, so a fast learned detector
sweeps all clip windows and only the flagged ones go to simulation.

This example:

1. synthesizes a routed-block layout with seeded marginal geometries
   (:func:`repro.data.synthesize_routed_block`),
2. trains the CNN detector on a generated benchmark,
3. sweeps the block with :class:`repro.api.ScanEngine` (dedup cache +
   live progress heartbeats via :class:`repro.api.EngineConfig`),
   verifying flagged windows with the lithography oracle,
4. prints the hotspot heat-map, the simulation-savings ratio, and how
   many of the seeded marginal spots the scan recovered.
"""

import numpy as np

from repro.api import (
    EngineConfig,
    HotspotOracle,
    Rect,
    ScanEngine,
    make_benchmark,
)
from repro.data import (
    BenchmarkConfig,
    FamilyMix,
    RoutedBlockConfig,
    seeded_recall,
    synthesize_routed_block,
)
from repro.nn import CNNDetector, CNNDetectorConfig

BLOCK = Rect(0, 0, 6144, 6144)


def main():
    rng = np.random.default_rng(42)
    print("=== synthesizing a 6.1 x 6.1 um routed block ===")
    layer, seeded = synthesize_routed_block(
        rng, BLOCK, RoutedBlockConfig(n_marginal=6)
    )
    print(f"  {len(layer.polygons)} polygons, {len(seeded)} marginal spots seeded")

    print("\n=== training the CNN detector on a generated benchmark ===")
    config = BenchmarkConfig(
        name="scan-train",
        n_train=200,
        n_test=50,
        mix=FamilyMix(
            weights={"grating": 1.0, "random_routing": 2.0, "tip_pair": 1.0},
            marginal_p={},
            default_marginal_p=0.25,
        ),
    )
    bench = make_benchmark(config, seed=3)
    # a generous false-alarm budget: scanning prefers recall, the litho
    # verification step cleans up the extra flags cheaply
    detector = CNNDetector(CNNDetectorConfig(epochs=8, width=16, fa_cap=0.3))
    detector.fit(bench.train, rng=rng)
    print(f"  trained on {bench.train.summary()}")

    print("\n=== sweeping the block (verified with litho-sim) ===")
    oracle = HotspotOracle()
    engine = ScanEngine(
        detector, config=EngineConfig.from_kwargs(progress="stderr")
    )
    result = engine.scan(layer, BLOCK, oracle=oracle)
    print(
        f"  {len(result.centers)} clip windows, {result.n_flagged} flagged "
        f"({100 * result.flag_ratio:.0f}% of full simulation cost), "
        f"{100 * result.dedup_ratio:.0f}% resolved by the dedup cache"
    )
    confirmed = int(result.confirmed.sum()) if result.confirmed is not None else 0
    print(f"  confirmed hotspots: {confirmed}")
    recall = seeded_recall(seeded, result.hotspot_regions())
    print(f"  seeded-spot recall: {100 * recall:.0f}%")

    print("\n  hotspot heat-map ('#' flagged, '+' warm, '.' cold):")
    grid = result.heat_map()
    for row in grid[::-1]:
        line = "".join(
            "#" if s >= detector.threshold else "+" if s >= 0.2 else "."
            for s in row
        )
        print("   " + line)


if __name__ == "__main__":
    main()
