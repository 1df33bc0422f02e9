"""E01 — Figure 1 / §2.1-2.2: session-key exchange and the asymmetric vs
symmetric cost gap.

Paper claims reproduced:
* the eavesdropper on the insecure channel learns neither K nor the
  software;
* asymmetric algorithms "require more processing power (due to modular
  exponentiation) than symmetric algorithm" and "ciphered text is longer
  than the original clear text";
* hence "only symmetric algorithms will be considered" for the bus (§2.2).

Cost metric: modeled *hardware* cycles, not Python wall time.  RSA cost =
modular multiplications x a 32-bit-datapath schoolbook modmul; AES cost =
blocks x the iterative core's 11 cycles.
"""

from __future__ import annotations

from ...analysis import format_table
from ...core import run_distribution
from ...crypto import CTR, DRBG, aes_kernel, generate_keypair
from ...sim.pipeline import AES_ITERATIVE
from ..base import Experiment, TaskContext
from .common import KEY16


def modmul_cycles(modulus_bits: int) -> int:
    """Schoolbook modular multiply on a 32-bit datapath: (n/32)^2 MACs."""
    words = -(-modulus_bits // 32)
    return words * words


def task_cost_gap(ctx: TaskContext) -> dict:
    """Modeled hardware cycles for RSA vs AES-CTR over growing payloads."""
    payload_sizes = (1024, 4096) if ctx.quick else (1024, 4096, 16384)
    key_bits = 512
    rng = DRBG(1)
    keypair = generate_keypair(key_bits, rng)
    per_modmul = modmul_cycles(key_bits)
    rows = []
    for size in payload_sizes:
        payload = rng.random_bytes(size)

        chunk = keypair.public.modulus_bytes - 11
        keypair.private.modmul_count = 0
        ct_rsa = b""
        for i in range(0, size, chunk):
            block_ct = keypair.public.encrypt(payload[i: i + chunk], rng)
            keypair.private.decrypt(block_ct)   # the processor-side cost
            ct_rsa += block_ct
        rsa_cycles = keypair.private.modmul_count * per_modmul

        ct_aes = CTR(aes_kernel(KEY16), nonce=bytes(12)).encrypt(payload)
        aes_cycles = AES_ITERATIVE.time_for(-(-size // 16))

        rows.append({
            "size": size,
            "rsa_cycles": rsa_cycles,
            "aes_cycles": aes_cycles,
            "ratio": round(rsa_cycles / max(aes_cycles, 1), 3),
            "rsa_expansion": round(len(ct_rsa) / size, 4),
            "aes_expansion": round(len(ct_aes) / size, 4),
        })
    return {"key_bits": key_bits, "rows": rows}


def task_protocol(ctx: TaskContext) -> dict:
    """Figure-1 distribution: the eavesdropper learns nothing useful."""
    software_size = 1024 if ctx.quick else 2048
    software = DRBG(2).random_bytes(software_size)
    processor, eve, session_key = run_distribution(software, seed=3)
    return {
        "software_size": software_size,
        "session_key_established": processor._session_key == session_key,
        "eve_saw_key": eve.saw(session_key),
        "eve_saw_software": eve.saw(software[:16]),
        "messages_observed": len(eve.transcript),
        "bytes_observed": eve.total_bytes,
    }


def render(results: dict) -> str:
    rows = results["cost-gap"]["rows"]
    gap = format_table(
        ["payload", "RSA-512 decrypt (cycles)", "AES-CTR (cycles)",
         "RSA/AES", "RSA expansion", "AES expansion"],
        [
            [r["size"], f"{r['rsa_cycles']:,}", f"{r['aes_cycles']:,}",
             f"{r['ratio']:.0f}x", f"{r['rsa_expansion']:.2f}x",
             f"{r['aes_expansion']:.2f}x"]
            for r in rows
        ],
        title="E01: asymmetric vs symmetric bulk encryption, modeled "
              "hardware cycles (survey §2.2)",
    )
    p = results["protocol"]
    proto = format_table(
        ["check", "value"],
        [
            ["session key established", p["session_key_established"]],
            ["eavesdropper saw K", p["eve_saw_key"]],
            ["eavesdropper saw software", p["eve_saw_software"]],
            ["messages observed", p["messages_observed"]],
            ["bytes observed", p["bytes_observed"]],
        ],
        title="E01: Figure-1 distribution protocol",
    )
    return gap + "\n\n" + proto


def check(results: dict) -> None:
    p = results["protocol"]
    assert p["session_key_established"]
    assert not p["eve_saw_key"]
    assert not p["eve_saw_software"]
    assert p["bytes_observed"] > p["software_size"]
    # RSA costs orders of magnitude more per byte and expands the
    # ciphertext; AES does neither.
    for r in results["cost-gap"]["rows"]:
        assert r["ratio"] > 100
        assert r["rsa_expansion"] > 1.05
        assert r["aes_expansion"] == 1.0


EXPERIMENT = Experiment(
    id="e01",
    title="Session-key exchange; asymmetric vs symmetric cost gap",
    section="§2.1-2.2 / Fig. 1",
    tasks={"cost-gap": task_cost_gap, "protocol": task_protocol},
    render=render,
    check=check,
)
