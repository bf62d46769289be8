"""Decoding at the level of labels rather than raw states.

States are partitioned into named classes; pointwise posteriors are averaged
within each class (arithmetic mean to a power, or geometric mean), and the
combined-risk program runs on the averaged scores.  A small positive joint
weight keeps the state path admissible, mirroring the constrained labelled
posterior decoders used for annotation tasks.
"""

import hmmrisk as hr

model = hr.four_state_model(2.0)
obs = hr.four_state_observations()
summary = hr.forward_backward(model, obs)

labels = hr.LabelMap({1: "loop", 4: "loop", 2: "anchor", 3: "anchor"})

print("class-averaged posterior weights at each position:")
for t in range(1, 5):
    row = [hr.averaged_label_posterior(summary, labels, t, s, beta=1.0) for s in (1, 2)]
    print(f"  t={t}: loop={row[0]:.4f} anchor={row[1]:.4f}")

weights = hr.RiskWeights(1.0, 1e-9, 0.0, 0.0, beta1=1.0)
decoded, names = hr.label_decode(summary, labels, weights)
print(f"\nlabel-averaged decode: path={decoded.path} labels={names}")
print(f"admissible: {decoded.admissible}")

identity = hr.identity_label_map(4)
plain = hr.hybrid_decode(summary, weights)
same, _ = hr.label_decode(summary, identity, weights)
print(f"\nidentity labelling recovers the plain decoder: {same.path == plain.path}")

merged = hr.LabelMap({s: "all" for s in range(1, 5)})
lumped, lumped_names = hr.label_decode(summary, merged, hr.RiskWeights(1.0, 0.0, 0.0, 0.0, beta1=1.0))
print(f"merging every state into one label makes all paths tie: {lumped.path}")
