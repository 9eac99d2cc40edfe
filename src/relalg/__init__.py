"""Finite relation algebras, rainbow constructions and their games."""

from .atoms import AtomStructure, make_structure, peircean_transforms
from .algebra import Algebra, Element, check_axioms
from .rainbow import Rainbow, build_rainbow, predicted_representable
from .networks import (
    Network,
    verify_exists_strategy,
    verify_forall_refutation,
)
from .seurat import (
    SeuratPosition,
    SeuratSession,
    lemma43_strategy,
    verify_seurat_strategy,
)
from .efgame import (
    EFPosition,
    Prop44Strategy,
    position_winner,
    verify_ef_strategy,
)
from .logic import build_phi_k, cardinality_sentence, evaluate, parse_formula
from .pebble import AtomRelStructure, Cor33Strategy, verify_pebble_strategy
from .verdict import Verdict
from . import rasfile

__version__ = "0.1.0"
