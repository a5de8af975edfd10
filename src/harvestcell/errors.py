"""Exception types shared across the package.

The CLI maps these onto stable exit codes; library callers can catch the
base class or the specific type they care about.
"""


class HarvestCellError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HarvestCellError):
    """Invalid or inconsistent configuration."""


# --- mechanism ---------------------------------------------------------

class NoAssembly(HarvestCellError):
    """The finger linkage cannot close at the requested crank angle."""

    def __init__(self, theta_deg: float, acos_argument: float):
        self.theta_deg = theta_deg
        self.acos_argument = acos_argument
        super().__init__(
            f"linkage cannot assemble at theta={theta_deg:.6g} deg "
            f"(acos argument {acos_argument:.6g} outside [-1, 1])"
        )


class DegenerateGeometry(HarvestCellError):
    """The linkage diagonal collapses; the diagonal angle is undefined."""


class NearSingular(HarvestCellError):
    """Configuration too close to the assembly boundary; dxi/dtheta blows up."""

    def __init__(self, theta_deg: float, acos_argument: float):
        self.theta_deg = theta_deg
        self.acos_argument = acos_argument
        super().__init__(
            f"derivative singular at theta={theta_deg:.6g} deg "
            f"(|acos argument| within 1e-9 of 1: {acos_argument!r})"
        )


# --- arm ---------------------------------------------------------------

class DimensionMismatch(HarvestCellError):
    """Joint vector length does not match the kinematic chain."""


class NoConvergence(HarvestCellError):
    """IK did not reach tolerance; carries the best iterate found.

    Unreachable targets are not distinguished from slow convergence.
    """

    def __init__(self, best_q, pos_residual: float, rot_residual: float,
                 residual_trace):
        self.best_q = best_q
        self.pos_residual = pos_residual
        self.rot_residual = rot_residual
        self.residual_trace = residual_trace
        super().__init__(
            f"IK did not converge: position residual {pos_residual:.3e} m, "
            f"orientation residual {rot_residual:.3e} rad"
        )


# --- planner -----------------------------------------------------------

class InfeasibleEndpoints(HarvestCellError):
    """Start or goal configuration is not finite, violates the joint limits or
    collides; planning refused."""


class NoFeasibleFound(HarvestCellError):
    """PSO finished without a collision-free trajectory; carries the best one."""

    def __init__(self, best_trajectory):
        self.best_trajectory = best_trajectory
        super().__init__(
            "no collision-free trajectory found "
            f"(best score {best_trajectory.fitness:.6g})"
        )


# --- perception --------------------------------------------------------

class ParseError(HarvestCellError):
    """Input file could not be parsed at all."""


class ValidationError(HarvestCellError):
    """A parsed record violates its schema; names the field and record index."""

    def __init__(self, field: str, index=None, message: str = ""):
        self.field = field
        self.index = index
        where = f" (record {index})" if index is not None else ""
        super().__init__(f"invalid field {field!r}{where}: {message}")


class InvalidDepth(HarvestCellError):
    """Depth sample is non-positive or non-finite."""


class NoValidDepth(HarvestCellError):
    """No finite positive depth in the sampling neighborhood."""


class LowConfidence(HarvestCellError):
    """A required keypoint is below the confidence threshold."""

    def __init__(self, keypoint: str, confidence: float, threshold: float):
        self.keypoint = keypoint
        self.confidence = confidence
        self.threshold = threshold
        super().__init__(
            f"keypoint '{keypoint}' confidence {confidence:.3g} "
            f"below threshold {threshold:.3g}"
        )


class NoRipeTarget(HarvestCellError):
    """No ripe detection record yields a buildable 3D target."""


# --- harvest -----------------------------------------------------------

class CalibrationFailed(HarvestCellError):
    """Noise calibration bracket does not straddle the requested rate."""
