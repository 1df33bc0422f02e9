"""E05 — §2.3 / Figure 6: the Kuhn attack on the DS5002FP, and the DS5240's
answer.

Paper claims reproduced:
* "The hacker circumvents the cryptographic problem by ... applying
  exhaustive attack (8-bit instruction <=> 256 possibilities).  After
  having identified the MOV instruction, he dumped the external memory
  content in clear form through the parallel-port" — executed end to end;
* "the 8-bit based ciphering passes to 64-bit based ciphering" — quantified
  as search-space explosion (2^8 -> 2^64) and block diffusion.
"""

from __future__ import annotations

from ...analysis import format_table
from ...attacks import (
    DallasBoard,
    KuhnAttack,
    PortBasedKuhnAttack,
    block_diffusion_probe,
    brute_force_tries,
)
from ...crypto import AddressScrambler, SmallBlockCipher, TweakableFeistel
from ...isa import assemble, secret_table_program
from ..base import Experiment, TaskContext

MEMORY_SIZE = 1024


def _firmware(ctx: TaskContext) -> bytes:
    size = ctx.n(MEMORY_SIZE, quick=512)
    return assemble(secret_table_program(seed=2005, table_len=64), size=size)


def task_kuhn_attack(ctx: TaskContext) -> dict:
    firmware = _firmware(ctx)
    board = DallasBoard(SmallBlockCipher(b"ds5002fp-factory-key"), firmware,
                        memory_size=len(firmware))
    report = KuhnAttack(board).run()
    return {
        "memory_size": len(firmware),
        "bytes_recovered": sum(
            a == b for a, b in zip(report.plaintext, firmware)),
        "fully_recovered": report.plaintext == firmware,
        "probe_runs": report.probe_runs,
        "steps_executed": report.steps_executed,
        "ambiguous_cells": len(report.ambiguous_cells),
    }


def task_scrambled_attack(ctx: TaskContext) -> dict:
    """The same break with the address bus enciphered as well: the
    port-based variant learns the address permutation from the CPU's own
    fetch pattern."""
    firmware = _firmware(ctx)
    board = DallasBoard(
        SmallBlockCipher(b"ds5002fp-factory-key"), firmware,
        memory_size=len(firmware),
        scrambler=AddressScrambler(b"address-bus-key", size=len(firmware)),
    )
    report = PortBasedKuhnAttack(board).run()
    return {
        "memory_size": len(firmware),
        "bytes_recovered": sum(
            a == b for a, b in zip(report.plaintext, firmware)),
        "fully_recovered": report.plaintext == firmware,
        "probe_runs": report.probe_runs,
    }


def task_resistance(ctx: TaskContext) -> dict:
    rows = []
    for label, bits in (("DS5002FP", 8), ("DS5240 (DES)", 64)):
        cipher = TweakableFeistel(b"key", block_bits=bits)
        rows.append({
            "device": label,
            "block_bits": bits,
            "tries_per_address": brute_force_tries(bits),
            "diffusion": round(block_diffusion_probe(cipher), 6),
        })
    return {"rows": rows}


def render(results: dict) -> str:
    k = results["kuhn-attack"]
    attack = format_table(
        ["metric", "value"],
        [
            ["memory dumped (bytes)", k["memory_size"]],
            ["bytes exactly recovered", k["bytes_recovered"]],
            ["probe runs", k["probe_runs"]],
            ["instructions single-stepped", k["steps_executed"]],
            ["ambiguous cells", k["ambiguous_cells"]],
        ],
        title="E05a: cipher instruction search vs DS5002FP (survey §2.3)",
    )
    s = results["scrambled-attack"]
    scrambled = format_table(
        ["metric", "value"],
        [
            ["memory dumped (bytes)", s["memory_size"]],
            ["bytes exactly recovered", s["bytes_recovered"]],
            ["probe runs", s["probe_runs"]],
        ],
        title="E05c: the attack vs data + address encryption",
    )
    rows = results["resistance"]["rows"]
    resistance = format_table(
        ["device", "block bits", "tries/address", "bit diffusion"],
        [[r["device"], r["block_bits"], f"{r['tries_per_address']:.2e}",
          f"{r['diffusion']:.2f}"] for r in rows],
        title="E05b: why 64-bit blocks stop the search (survey §3)",
    )
    return attack + "\n\n" + scrambled + "\n\n" + resistance


def check(results: dict) -> None:
    k = results["kuhn-attack"]
    assert k["fully_recovered"]
    # Kuhn's scale: a few 256-candidate sweeps plus one run per byte.
    assert k["probe_runs"] < 6 * 256 + k["memory_size"] + 64
    s = results["scrambled-attack"]
    assert s["fully_recovered"]
    assert s["probe_runs"] < 8 * 256 + s["memory_size"] + 64
    ds5002, ds5240 = results["resistance"]["rows"]
    assert ds5002["tries_per_address"] == 256
    assert ds5240["tries_per_address"] == 2 ** 64
    # The 64-bit block diffuses: a single-byte probe garbles the block.
    assert 0.35 < ds5240["diffusion"] < 0.65


EXPERIMENT = Experiment(
    id="e05",
    title="Kuhn attack on DS5002FP; DS5240's 64-bit answer",
    section="§2.3 / Fig. 6",
    tasks={
        "kuhn-attack": task_kuhn_attack,
        "scrambled-attack": task_scrambled_attack,
        "resistance": task_resistance,
    },
    render=render,
    check=check,
)
