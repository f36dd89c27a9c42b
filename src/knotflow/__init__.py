"""Self-avoiding curve network optimization.

Minimizes the discrete tangent-point energy of curve networks under hard
constraints, preconditioned by a fractional Sobolev inner product, with
optional Barnes-Hut, hierarchical-matrix, and multigrid acceleration.
"""

from .bct import BlockClusterTree, HierKernelMatrix, HierMetric
from .bvh import EdgeBvh, bh_differential, bh_energy
from .constraints import (Barycenter, ConstraintSet, EdgeLengths,
                          PointConstraint, SphereSurface, SurfaceConstraint,
                          TangentConstraint, TotalLength,
                          project_onto_constraints)
from .energy import (EnergyParams, ParameterError, SelfContactError,
                     discrete_differential, discrete_energy, kernel,
                     validate_params)
from .flow import (FlowConfig, FlowResult, StepReport, collision_step_limit,
                   line_search, run_flow)
from .metric import MetricOperator, SaddleFactor
from .multigrid import MultigridHierarchy, coarsen_network
from .network import (CurveNetwork, EdgeGeometry, InvalidNetworkError,
                      edge_average, edge_geometry)
from .potentials import (ConstantField, FieldPotential,
                         LengthDifferencePotential, ObstacleContactError,
                         RotationField, SurfacePotential,
                         TotalLengthPotential)
from .scenes import (Scene, SceneError, export_frames, generate_test_curve,
                     load_obj_curve, parse_scene, save_obj_curve,
                     serialize_scene)

__version__ = "0.1.0"
