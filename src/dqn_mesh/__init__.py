"""Distributed quasi-Newton optimization over peer-to-peer mesh networks.

Simulates networks of agents that cooperatively minimize a separable
objective, with or without a shared linear equality constraint, by mixing
iterates, tracked gradients, and curvature-informed directions with their
neighbors.  Includes a first-order gradient-tracking baseline, benchmark
problem generators, and an experiment harness with exact communication
accounting.

The package namespace exports nothing but ``__version__``; import from
the submodules (``dqn_mesh.topology``, ``dqn_mesh.problems``,
``dqn_mesh.dqn``, ``dqn_mesh.ecdqn``, ``dqn_mesh.harness``).
"""

__version__ = "0.1.0"
