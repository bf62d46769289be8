"""Bridging pointwise decoding towards Viterbi with the k-block family.

The k-block objective weighs the pointwise log risk against the joint path
risk with weights (1, k-1).  As k grows, the decoded path's joint posterior
probability rises monotonically while the product of its pointwise marginals
falls: the decoder walks from PMAP (k=1) towards the Viterbi solution.

The same bridge is reachable through the continuous interpolation parameter
alpha = 1/k, demonstrated second.
"""

import numpy as np

import hmmrisk as hr

rng = np.random.default_rng(7)
model = hr.HmmModel(
    rng.dirichlet(np.ones(3)),
    rng.dirichlet(np.ones(3), size=3),
    hr.Categorical(rng.dirichlet(np.ones(4), size=3)),
)
_, obs = hr.sample_trajectory(model, 60, seed=123)
summary = hr.forward_backward(model, obs)
vit = hr.viterbi_decode(summary).risks

print("k-block sweep (posterior path risk falls, pointwise log risk rises):")
print(f"{'k':>4} {'rbarinf':>12} {'rbar1':>12} {'sandwich bound':>15}")
for k in [1, 2, 3, 4, 6, 10, 20, 40, 60]:
    risks = hr.kblock_pvd_decode(summary, k).risks
    bound = np.inf if k == 1 else vit.rbarinf_posterior + vit.rbar1_posterior / (k - 1)
    print(f"{k:>4} {risks.rbarinf_posterior:>12.6f} {risks.rbar1_posterior:>12.6f} {bound:>15.6f}")

print(f"\nviterbi itself:  rbarinf = {vit.rbarinf_posterior:.6f}, rbar1 = {vit.rbar1_posterior:.6f}")

print("\nalpha interpolation (alpha = 1/k gives the same paths):")
for k in [1, 2, 4, 10]:
    a = hr.alpha_interpolation_decode(summary, 1.0 / k)
    b = hr.kblock_pvd_decode(summary, k)
    print(f"  alpha = 1/{k:<3} path == k-block path: {a.path == b.path}")

print("\nwindowed log-risk identities along one fixed path:")
path = hr.pmap_decode(summary).path
report = hr.evaluate_risks(summary, path)
for k in [2, 3, 5]:
    lhs = hr.kblock_logrisk(summary, path, k)
    rhs = (k - 1) * report.rbarinf_posterior + report.rbar1_posterior
    print(f"  k={k}:  window risk = {lhs:.9f}   (k-1)*rbarinf + rbar1 = {rhs:.9f}")
