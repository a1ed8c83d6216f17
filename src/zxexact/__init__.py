"""Exact ZX-calculus engine.

Diagrams, exact cyclotomic interpretation, a verified rewrite-rule
catalogue, a derivation proof checker, and mechanized incompleteness
witnesses.
"""

from .diagram import (
    Diagram, DiagramError, NodeKind, PiRational, Violation,
    diagram_from_json, diagram_to_json, dump_diagram, hbox, load_diagram,
    make_generator, make_spider, scale_angles, sequential_compose,
    tensor_product, transform_variant, validate_diagram, xspider, zspider,
)
from .cyclotomic import (
    CycloScalar, ModulusError, cyclotomic_polynomial, euler_phi,
    lift_modulus, membership_solve, root_of_unity, sqrt_two,
)
from .interpret import (
    BackendError, CompareResult, ContractionPlan, ResourceLimitError,
    SemanticMatrix, choose_modulus, interpret, invariant_g, invariant_r,
    backend_for, is_zero, matrix_compare, node_tensor, plan_contraction,
)
from .rules import (
    DERIVED_IMPORTED, RULESETS, RuleError, RuleInstance, RuleSchema,
    catalogue, check_equation, check_soundness, get_schema, instantiate,
    invariant_preservation_check, ruleset_schemas, soundness_suite,
)
from .derive import (
    DerivationScript, DerivationStep, Embedding, HalfEdge, TwinError, Verdict,
    apply_step, check_derivation, load_script, merge_twins,
    twin_local_equivalence, validate_embedding,
)
from .witness import (
    Theorem2Constants, WitnessReport, witness_E_independence, witness_sqrt2,
    witness_sup_necessity, witness_theorem2,
)
from .bundled import BUNDLED_SCRIPTS, build_script, load_bundled, load_bundled_pair

__version__ = "0.1.0"
