"""The adversary: Mallory's attack repertoire (paper Secs 2.1, 4.1, 4.3, 5).

Implementing the attacks — not just the defenses — is what lets the
test-suite and benchmarks demonstrate the resilience claims:

* :mod:`repro.attacks.epsilon` — uninformed random alteration (A6), the
  ε-attack of [19] used throughout Sec 6.1;
* :mod:`repro.attacks.additive` — bounded insertion of plausible values
  (A5);
* :mod:`repro.attacks.correlation` — the hash-bucket counting attack of
  Sec 4.1 that breaks value-derived bit positions;
* :mod:`repro.attacks.bias_detection` — the subset-consistency attack of
  Sec 4.3 that breaks the guarded-bit encoding;
* :mod:`repro.attacks.extreme_attack` — the Sec-5 targeted model
  (every a1-th extreme, ratio a2 of its radius-a3 subset);
* :mod:`repro.attacks.suite` — a gauntlet runner for examples/benches.

:data:`ATTACKS` names a *builder* per stream-mangling attack (options
in, ``values -> values`` callable out), which is how the
:class:`AttackSuite` and the ``repro attack`` CLI resolve them by name.
"""

from __future__ import annotations

from repro.attacks.additive import additive_attack
from repro.attacks.bias_detection import bias_detection_attack
from repro.attacks.correlation import CorrelationAttackReport, correlation_attack
from repro.attacks.epsilon import epsilon_attack
from repro.attacks.extreme_attack import targeted_extreme_attack
from repro.attacks.suite import AttackOutcome, AttackSuite

__all__ = [
    "additive_attack",
    "bias_detection_attack",
    "CorrelationAttackReport",
    "correlation_attack",
    "epsilon_attack",
    "targeted_extreme_attack",
    "AttackOutcome",
    "AttackSuite",
]


# ----------------------------------------------------------------------
# builders: options in, `values -> values` callable out
# ----------------------------------------------------------------------
def _build_epsilon(tau: float = 0.1, epsilon: float = 0.1, mu: float = 0.0,
                   rng=None):
    """Builder for the uninformed random-alteration attack."""
    def apply(values):
        return epsilon_attack(values, tau=tau, epsilon=epsilon, mu=mu,
                              rng=rng)
    return apply


def _build_additive(fraction: float = 0.1, rng=None):
    """Builder for the bounded-insertion attack."""
    def apply(values):
        return additive_attack(values, fraction=fraction, rng=rng)
    return apply


def _build_extreme_targeted(a1: int = 5, a2: float = 0.5, rng=None):
    """Builder for the targeted extreme-alteration attack."""
    def apply(values):
        attacked, _report = targeted_extreme_attack(values, a1=a1, a2=a2,
                                                    rng=rng)
        return attacked
    return apply


#: ``name -> (builder, description)``, in ``repro list`` order.
ATTACKS = {
    "epsilon": (_build_epsilon,
                "(A6) epsilon-attack: alter a `tau` fraction of items by "
                "up to `epsilon`"),
    "additive": (_build_additive,
                 "(A5) insert a `fraction` of plausible fabricated values"),
    "extreme-targeted": (_build_extreme_targeted,
                         "Sec-5 targeted model: every `a1`-th extreme, "
                         "ratio `a2` of its subset"),
}
