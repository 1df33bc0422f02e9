"""Attack substrate: the adversaries the survey's engines must resist.

Passive bus probing, ECB/statistical distinguishers, known-plaintext
dictionaries, Kuhn's cipher instruction search (the DS5002FP break),
IV birthday analysis, brute-force cost models and the IBM adversary
taxonomy.
"""

from .access_pattern import (
    AccessPatternProfile,
    classify_pattern,
    page_sequence,
    profile_probe,
)
from .birthday import (
    collision_probability,
    count_collisions,
    expected_writes_to_collision,
    first_collision_index,
    iv_reuse_leak,
)
from .correlation import (
    CorrelationAttackResult,
    correlate,
    geffe_correlation_attack,
    recover_register,
)
from .brute_force import (
    CLASS_I_ADVERSARY,
    CLASS_II_ADVERSARY,
    CLASS_III_ADVERSARY,
    BruteForceModel,
    effective_key_bits_after,
    moore_speedup,
    years_to_break,
)
from .ecb_analysis import (
    CiphertextAnalysis,
    analyze_ciphertext,
    ecb_distinguisher,
    matching_block_pairs,
)
from .known_plaintext import KnownPlaintextDictionary
from .kuhn import (
    AttackFailure,
    AttackReport,
    DallasBoard,
    KuhnAttack,
    block_diffusion_probe,
    brute_force_tries,
)
from .kuhn_scrambled import PortBasedKuhnAttack
from .probe import BusProbe
from .taxonomy import (
    ACTIVE_ATTACKS,
    CLASS_CAPABILITIES,
    ENGINE_RATINGS,
    AttackerClass,
    Capability,
    EngineSecurityRating,
    attack_class_required,
    rate_engine,
)

__all__ = [
    "AccessPatternProfile", "classify_pattern", "page_sequence",
    "profile_probe",
    "collision_probability", "count_collisions",
    "expected_writes_to_collision", "first_collision_index", "iv_reuse_leak",
    "CLASS_I_ADVERSARY", "CLASS_II_ADVERSARY", "CLASS_III_ADVERSARY",
    "BruteForceModel", "effective_key_bits_after", "moore_speedup",
    "years_to_break",
    "CorrelationAttackResult", "correlate", "geffe_correlation_attack",
    "recover_register",
    "CiphertextAnalysis", "analyze_ciphertext", "ecb_distinguisher",
    "matching_block_pairs",
    "KnownPlaintextDictionary",
    "AttackFailure", "AttackReport", "DallasBoard", "KuhnAttack",
    "block_diffusion_probe", "brute_force_tries",
    "PortBasedKuhnAttack",
    "BusProbe",
    "ACTIVE_ATTACKS", "CLASS_CAPABILITIES", "ENGINE_RATINGS",
    "AttackerClass", "Capability", "EngineSecurityRating",
    "attack_class_required", "rate_engine",
]
