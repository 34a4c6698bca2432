"""Geometry, weak losses, and evaluation for monocular 3D lane estimation.

The library turns ordinary 2D lane annotations into flat-ground (bird's eye
view) supervision, scores lane hypotheses with width- and height-consistency
priors whose gradients are exact, self-calibrates camera pitch from the labels
themselves, and demonstrates by direct optimization that lane height is
recoverable from the 2D labels alone.
"""

from .anchors import (
    AnchorGridSpec,
    AnchorTensor,
    NmsConfig,
    associate,
    decode,
    encode_gt,
    nms,
)
from .calibration import CalibConfig, CalibrationResult, calibrate_pitch
from .errors import (
    BehindCameraError,
    DegenerateProjectionError,
    DegenerateSegmentError,
    DivergedError,
    IllConditionedError,
    InsufficientPointsError,
    InvalidInputError,
    InvalidLaneError,
    InvalidSpecError,
    LaneError,
    NumericError,
)
from .fit import (
    FitConfig,
    FitReport,
    closed_form_z,
    closed_form_z_profile,
    fit_sup,
    fit_ws,
)
from .geometry import (
    DEFAULT_INTRINSICS,
    CameraPose,
    Intrinsics,
    Lane3D,
    LaneBEV,
    flat_from_image_points,
    flat_from_points3,
    lane_bev_from_lane3d,
    project_points3_to_image,
    resample_at_y,
    resample_bev_with_z,
    resample_lane3d_xz,
)
from .laneio import LaneFile, lane_file_from_sample, read_lane_file, write_lane_file
from .losses import (
    LossBreakdown,
    LossWeights,
    bev_loss,
    height_loss,
    lane_width,
    pitch_loss,
    total_sup,
    total_ws,
    width_loss,
    z_loss,
)
from .metrics import EvalConfig, EvalResult, chamfer_distance, evaluate
from .plot import render_svg, write_svg
from .scenes import SceneSample, SceneSpec, make_scene, perturb_pitch

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
