#!/usr/bin/env python
"""From physics to the paper's knobs: fidelity, distillation and teleportation.

The network-level model of the paper compresses all quantum imperfection
into two numbers per pair: the distillation overhead ``D`` and the loss
factor ``L``.  This example walks the chain that produces those numbers on
Werner pairs, each described by its fidelity ``F`` alone, in closed form:

1. swapping degrades fidelity (and the degradation compounds with hops),
2. BBPSSW purification restores fidelity at a raw-pair cost -- the ``D``,
3. memory decoherence turns storage time into the loss factor ``L``,
4. the Werner parameter ``w = (4F - 1)/3``, which a swap multiplies, and
   the teleportation fidelity an application finally sees.

Run with::

    python examples/fidelity_physics.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.quantum.decoherence import ExponentialDecoherence
from repro.quantum.distillation import (
    bbpssw_output_fidelity,
    bbpssw_success_probability,
    expected_pairs_for_target,
)
from repro.quantum.fidelity import (
    WernerState,
    fidelity_after_hops,
    teleportation_fidelity,
)


def main() -> None:
    link_fidelity = 0.92
    target_fidelity = 0.95

    # 1. Fidelity after swapping chains of identical links.
    hop_rows = []
    for hops in (1, 2, 4, 8):
        hop_rows.append((hops, round(fidelity_after_hops(link_fidelity, hops), 4)))
    print(
        format_table(
            ("hops swapped", "end-to-end fidelity"),
            hop_rows,
            title=f"1. Swapping compounds noise (link fidelity {link_fidelity})",
        )
    )
    print()

    # 2. Purification: each BBPSSW round costs pairs but raises fidelity.
    fidelity = fidelity_after_hops(link_fidelity, 4)
    purify_rows = []
    current = fidelity
    for round_index in range(3):
        success = bbpssw_success_probability(current)
        nxt = bbpssw_output_fidelity(current)
        purify_rows.append((round_index + 1, round(current, 4), round(nxt, 4), round(success, 3)))
        current = nxt
    print(
        format_table(
            ("round", "input F", "output F", "success probability"),
            purify_rows,
            title="2. BBPSSW purification rounds on the 4-hop pair",
        )
    )
    d_value = expected_pairs_for_target(link_fidelity, target_fidelity)
    print(f"\n   Raw pairs per target-fidelity pair on one link (the paper's D): {d_value:.2f}\n")

    # 3. Decoherence: storage time -> the loss factor L.
    decoherence = ExponentialDecoherence(coherence_time=100.0)
    loss_rows = [
        (storage, round(decoherence.loss_factor(storage), 3))
        for storage in (0.0, 10.0, 50.0, 100.0, 500.0)
    ]
    print(
        format_table(
            ("mean storage time", "loss factor L"),
            loss_rows,
            title="3. Memory decoherence (coherence time T = 100)",
        )
    )
    print()

    # 4. The Werner algebra behind every row above: a swap multiplies the
    #    Werner parameter w = (4F - 1)/3 of its two pairs.  Teleporting
    #    through a pair of fidelity F reaches the average fidelity (2F + 1)/3.
    resource = WernerState(0.9)
    link = WernerState(link_fidelity)
    swapped = resource.swap_with(link)
    product = resource.werner_parameter() * link.werner_parameter()
    if abs(swapped.werner_parameter() - product) > 1e-12:
        raise RuntimeError("a swap must multiply the Werner parameters")
    teleported = teleportation_fidelity(resource.fidelity)
    print(
        format_table(
            ("quantity", "value"),
            [
                ("resource pair fidelity F", resource.fidelity),
                ("Werner parameter w = (4F-1)/3", round(resource.werner_parameter(), 4)),
                ("w after a swap with the link pair", round(swapped.werner_parameter(), 4)),
                ("product of the two pairs' w", round(product, 4)),
                ("teleportation fidelity (2F+1)/3", round(teleported, 4)),
            ],
            title="4. Werner algebra and the teleportation fidelity of the resource pair",
        )
    )


if __name__ == "__main__":
    main()
