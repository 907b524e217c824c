"""snaflow: quasiperiodically forced scalar flows and their bifurcations.

Simulates skew-product fibre ODEs with exact variational channels, reduces
them to first return maps on the section theta_D = 0, computes attracting and
repelling invariant graphs by pullback, locates and classifies saddle-node
collisions, estimates box-counting dimensions of graph point clouds, and
audits the derivative-bound hypotheses under which the non-smooth scenario is
guaranteed.
"""
from .torus import (
    RotationVector,
    InducedFrequency,
    DiophantineCertificate,
    TorusPoint,
    certify_diophantine,
    induce_frequency,
    torus_distance,
)
from .fields import (
    BumpProfile,
    FieldEval,
    ForcedField,
    RadialLogistic,
    Cos11,
    LogisticHarvest,
    AutonomousRiccati,
    eval_field,
    radial_to_harvest,
)
from .flow import (
    IntegratorConfig,
    AugmentedFlowState,
    FlowBlowUp,
    FlowEscape,
    integrate,
    check_cocycle,
    inverse_check,
)

__version__ = "0.1.0"
