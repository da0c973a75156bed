"""
Monte Carlo spells against the exact evaluator
==============================================

Spell statistics admit closed linear recursions, so Monte Carlo is not
needed for precision here; simulating anyway shows the two agree and
demonstrates the reproducibility contract: spell i's randomness is a
pure function of (master_seed, i), so worker count and scheduling
cannot change a digit of the summary.
"""

import time

from uisearch import (CounterStream, ExtensionSpec, build_policy,
                      default_calibration, evaluate_policy, simulate_many,
                      simulate_spell)

cal = default_calibration()
belief = ExtensionSpec(delta=0.1, length=25)   # a pessimistic worker
policy = build_policy(cal.dist, cal.params, belief,
                      true_length=cal.truth.length)

exact = evaluate_policy(policy, cal.truth, cal.params, cal.dist)

started = time.perf_counter()
summary = simulate_many(policy, cal.truth, cal.params, cal.dist,
                        n_spells=1_000_000, master_seed=7)
elapsed = time.perf_counter() - started

print(f"1,000,000 spells in {elapsed:.2f}s\n")
print("                 exact          simulated       stderr    z")
for name, value, mean, err in [
    ("welfare      ", exact.welfare, summary.welfare_mean, summary.welfare_stderr),
    ("duration     ", exact.duration, summary.duration_mean, summary.duration_stderr),
    ("accepted wage", exact.accepted_wage, summary.wage_mean, summary.wage_stderr),
]:
    print(f"{name}  {value:<14.6f} {mean:<14.6f}  {err:<9.2e} "
          f"{(mean - value) / err:+.2f}")

print("\nExtensions occurred in "
      f"{100 * summary.extension_frequency:.1f}% of spells; "
      f"{summary.truncated_count} spells hit the period cap.")

# Determinism: rerunning with a different worker count reproduces the
# summary bit for bit.
replay = simulate_many(policy, cal.truth, cal.params, cal.dist,
                       n_spells=1_000_000, master_seed=7, n_workers=8)
print("Bit-identical with 8 workers:", replay == summary)

# Any single spell can be replayed through the scalar path for a trace.
record = simulate_spell(policy, cal.truth, cal.params, cal.dist,
                        CounterStream(7, 0))
print("\nSpell 0:", record)
