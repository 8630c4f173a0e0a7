"""Algebraic and numerical spectra of position-dependent-mass oscillators.

Importing the package loads none of its modules: each public name below
is imported from its module on first use (PEP 562), so a command that
never touches susy never imports numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "cli": "run",
    "discrete": """EigenSolution Grid TridiagonalOperator assemble_sturm_liouville
                   assemble_von_roos build_grid eigen_tridiagonal uniform_grid""",
    "errors": """ConstraintViolatedError ConvergenceFailureError
                 DegreeMismatchError InvalidCountError InvalidLambdaError
                 LengthMismatchError NonPositiveAlphaError NotABoundStateError
                 NotProportionalError OutOfDomainError PdemError""",
    "families": """Kind MassProfile ShapeInvariantFamily VonRoosOrdering
                   alpha_at bound_state_count energy energy_via_recursion
                   make_family mass_at potential_full potential_minus
                   potential_plus remainder unified_deformation""",
    "polynomials": """FamilyTag LambdaPoly Parameterization Ratio coefficient_rows
                      derivative_relation_residual evaluate gf_polynomial
                      gf_polynomials harmonic_limit proportionality_ratio
                      rodrigues_polynomial three_term_next to_json_dict""",
    "sampling": "eigenfunction_lists",
    "susy": """ResidualEntry eigenfunction_samples
               ground_state_unnormalized inner_product superpotential_at
               verify_all""",
}
_HOME = {name: module for module, names in _MODULES.items()
         for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
