"""Minimal CNF/DPLL SAT substrate (the repository's Z3 substitute)."""

from sat.cnf import Cnf
from sat.dpll import is_satisfiable, solve
from sat.gf2_encoding import (
    encode_charge_constraints,
    sat_charge_assignment,
    sat_is_charge_realizable,
)

__all__ = [
    "Cnf",
    "solve",
    "is_satisfiable",
    "encode_charge_constraints",
    "sat_charge_assignment",
    "sat_is_charge_realizable",
]
