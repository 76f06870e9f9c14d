"""Quantum Turing machines with a halt-flag observable.

The package models machines whose configurations carry a halting flag
derived from the internal state, checks rule tables for the isometry
property, evolves superpositions, measures the halt flag under arbitrary
schedules, lifts reversible classical machines, and runs two experiments
probing what halting means for superposed inputs.
"""

__version__ = "0.1.0"

from .errors import MissingRuleError, NotReversibleError, ParseError, QtmError
from .evolution import TraceRow, evolve, step, trajectory
from .experiments import (
    SubspaceReport,
    SuperpositionReport,
    analyze_halting_subspace,
    superposition_window,
)
from .machine import (
    BLANK,
    DEFAULT_TOL,
    Configuration,
    MachineSpec,
    QuantumState,
    RuleTarget,
    initial_state,
    tape_cells,
    tape_text,
)
from .measurement import (
    ComparisonReport,
    HaltOutcome,
    MeasurementRecord,
    OutputDistribution,
    Schedule,
    UNHALTED,
    compare_schedules,
    parse_schedule,
    run_schedule,
    sample_run,
)
from .parsing import (
    parse_amplitude,
    parse_classical,
    parse_input,
    parse_machine,
    render_amplitude,
    render_machine,
)
from .wellformed import (
    BY_CONSTRUCTION,
    StructureViolation,
    WellformednessReport,
    basis_image,
    check_wellformed,
    core_well_formed,
    lift_to_qtm,
    pair_image_inner,
    validate_structure,
)

__all__ = [
    "BLANK",
    "BY_CONSTRUCTION",
    "ComparisonReport",
    "Configuration",
    "DEFAULT_TOL",
    "HaltOutcome",
    "MachineSpec",
    "MeasurementRecord",
    "MissingRuleError",
    "NotReversibleError",
    "OutputDistribution",
    "ParseError",
    "QtmError",
    "QuantumState",
    "RuleTarget",
    "Schedule",
    "StructureViolation",
    "SubspaceReport",
    "SuperpositionReport",
    "TraceRow",
    "UNHALTED",
    "WellformednessReport",
    "analyze_halting_subspace",
    "basis_image",
    "check_wellformed",
    "compare_schedules",
    "core_well_formed",
    "evolve",
    "initial_state",
    "lift_to_qtm",
    "pair_image_inner",
    "parse_amplitude",
    "parse_classical",
    "parse_input",
    "parse_machine",
    "parse_schedule",
    "render_amplitude",
    "render_machine",
    "run_schedule",
    "sample_run",
    "step",
    "superposition_window",
    "tape_cells",
    "tape_text",
    "trajectory",
    "validate_structure",
]
