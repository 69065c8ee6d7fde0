"""Three-player Kuhn poker laboratory.

Exact rules engine, tabulated equilibrium profiles completed by strict
dominance, rational-arithmetic best-response verification, vanilla CFR
training, an agent zoo, and a duplicate-match tournament harness.
"""
