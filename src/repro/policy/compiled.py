"""A named entry point onto the interpreter, kept for ``perfbench/``.

``perfbench/tracing.py`` imports :class:`PolicyEngine` and wraps its
``evaluate``; nothing in the package calls it.
"""

from repro.policy.interpreter import PolicyInterpreter


class PolicyEngine:
    """Delegates every check to :class:`PolicyInterpreter`."""

    interpreter = PolicyInterpreter()

    def evaluate(self, policy, operation, ctx):
        return self.interpreter.evaluate(policy, operation, ctx)
