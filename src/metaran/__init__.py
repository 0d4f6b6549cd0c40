"""Meta-RL resource-block and downlink power allocation for a desk-scale
O-RAN-style cell simulator: DDPG inner learners, first-order meta updates,
baselines, and an experiment harness."""
