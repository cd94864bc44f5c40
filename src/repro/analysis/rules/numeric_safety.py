"""Rule ``numeric-safety``: no bare float equality, no inline tolerances.

Two checks, both grounded in invariants this repro actually ships:

1. **Bare float equality** — ``==`` / ``!=`` where an operand is
   evidently floating-point (a float literal, a ``float(...)`` /
   ``np.float64(...)`` conversion, a float-returning numpy reduction
   like ``.sum()`` / ``np.dot`` / ``np.linalg.norm``, or arithmetic over
   any of these). Every such comparison in the serving stack is either a
   bug (it should go through a tolerance) or an intentional bit-exact
   test (the backend-equivalence contract) — and intent must be visible:
   either a ``repro: bit-exact`` marker in the module docstring, which
   exempts the whole file, or a per-line suppression with a
   justification.

2. **Inline tolerance literals** — a literal of the form ``1e-N``
   (``3 ≤ N ≤ 320``) anywhere outside :mod:`repro.core.tolerances`.
   Tolerances are system-wide contracts (the insert prescreen is only
   sound because its margin stays below *the* membership tolerance), so
   each one lives exactly once, in the consolidated module, under a name
   that documents what it guards.
"""

from __future__ import annotations

import ast
import math

from repro.analysis.framework import Finding, Module, Project, Rule

__all__ = ["NumericSafetyRule"]

#: Attribute / function names whose call results are treated as floats.
_FLOAT_CALLS = frozenset(
    {
        "float",
        "float64",
        "sum",
        "dot",
        "mean",
        "norm",
        "prod",
        "vdot",
        "trace",
        "maximize",
        "chebyshev_radius",
        "volume",
        "log",
        "log10",
        "exp",
        "sqrt",
    }
)

#: Module docstring marker that exempts a whole file from the bare-float-
#: equality check (for bit-exactness tests, where exact ``==`` is the
#: entire point).
BIT_EXACT_MARKER = "repro: bit-exact"


def _is_tolerance_literal(value: float) -> bool:
    """True for literals of the exact form ``1e-N`` with ``N >= 3``.

    The reconstruction round-trip (format the candidate exponent back
    through ``float``) keeps the test exact without comparing logs up to
    an epsilon — this module must not itself contain a tolerance.
    """
    if not isinstance(value, float) or value <= 0.0:
        return False
    try:
        n = -math.log10(value)
    except ValueError:  # pragma: no cover - value > 0 guards this
        return False
    exponent = round(n)
    if exponent < 3 or exponent > 320:
        return False
    return float(f"1e-{exponent}") == value


def _is_floatish(node: ast.expr) -> bool:
    """Conservatively: does this expression evidently produce a float
    (or a float ndarray)?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_floatish(node.left) or _is_floatish(node.right)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _FLOAT_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _FLOAT_CALLS:
            return True
    return False


class NumericSafetyRule(Rule):
    id = "numeric-safety"
    name = "no bare float equality, no inline tolerance literals"
    doc = (
        "Flags ==/!= comparisons with evidently floating-point operands "
        "outside files whose docstring carries a 'repro: bit-exact' "
        "marker, and 1e-N tolerance literals defined anywhere but "
        "repro/core/tolerances.py."
    )

    #: Path suffix of the one module allowed to define tolerance literals.
    tolerances_suffix = "core/tolerances.py"

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project:
            findings.extend(self._check_module(module))
        return findings

    def _check_module(self, module: Module) -> list[Finding]:
        findings: list[Finding] = []
        docstring = ast.get_docstring(module.tree) or ""
        bit_exact_file = BIT_EXACT_MARKER in docstring
        literals_allowed = module.path.endswith(self.tolerances_suffix)

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare) and not bit_exact_file:
                operands = [node.left] + node.comparators
                for i, op in enumerate(node.ops):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    left, right = operands[i], operands[i + 1]
                    if _is_floatish(left) or _is_floatish(right):
                        findings.append(
                            Finding(
                                rule=self.id,
                                path=module.path,
                                line=node.lineno,
                                message=(
                                    "bare ==/!= on a floating-point "
                                    "expression; compare against a "
                                    "tolerance from repro.core.tolerances, "
                                    "or mark the file 'repro: bit-exact' "
                                    "if exact equality is the contract"
                                ),
                            )
                        )
                        break
            elif isinstance(node, ast.Constant) and not literals_allowed:
                if _is_tolerance_literal(node.value):
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=module.path,
                            line=node.lineno,
                            message=(
                                f"inline tolerance literal {node.value!r}; "
                                f"import a named constant from "
                                f"repro.core.tolerances instead"
                            ),
                        )
                    )
        return findings
