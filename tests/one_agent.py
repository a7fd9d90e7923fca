"""Each agent's objective as a problem of its own.

One agent's objective is the problem of its record alone: its value at x
is that problem's ``objective_value(x)`` and its gradient
``gradients(x[None])[0]``, the one-agent case of the stacked kernels.
"""

from dqn_mesh.problems import SeparableProblem


def agent_problems(problem):
    """Every agent's one-agent problem, SeparableProblem(family, [record]),
    in agent order."""
    return [SeparableProblem(problem.family, [record]) for record in problem.local_data]
