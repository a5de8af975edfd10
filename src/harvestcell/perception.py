"""Detection-record ingestion and 2D-to-3D target localization.

Neural inference happens upstream; this module consumes its outputs: a JSON
file of per-tomato segmentation + keypoint records and a binary depth frame.
Keypoints are lifted through a pinhole camera model into the robot base
frame and the harvest target is selected among the ripe detections.

Depth frame format: 16-byte header (magic "DPTH", u32 width, u32 height,
u32 reserved, all little-endian) followed by row-major float32 depth in
metres (depth_scale 1.0 for this format).
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .arm import quat_to_matrix
from .errors import (ConfigError, InvalidDepth, LowConfidence, NoRipeTarget,
                     NoValidDepth, ParseError, ValidationError)

RIPENESS_CLASSES = ("ripe", "unripe")
SELECTION_POLICIES = ("ripest-nearest", "highest-score")
DEPTH_MAGIC = b"DPTH"
DEFAULT_CONFIDENCE_THRESHOLD = 0.5
# half-width in pixels of the depth neighborhood a keypoint is lifted from
DEPTH_WINDOW = 2


@dataclass(frozen=True)
class Keypoint:
    u: float
    v: float
    confidence: float


@dataclass(frozen=True)
class DetectionRecord:
    """One 2D detection: class, score, box, optional mask polygon, two keypoints."""

    label: str                       # "ripe" | "unripe" (JSON key: "class")
    score: float
    bbox: tuple[float, float, float, float]   # u_min, v_min, u_max, v_max
    center: Keypoint
    pedicel: Keypoint
    mask: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus camera-to-base extrinsics."""

    fx: float = 700.0
    fy: float = 700.0
    cx: float = 640.0
    cy: float = 360.0
    width: int = 1280
    height: int = 720
    extrinsic_quaternion: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]))
    extrinsic_translation: np.ndarray = field(
        default_factory=lambda: np.zeros(3))
    depth_scale: float = 1.0

    def __post_init__(self):
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ConfigError("focal lengths must be > 0")
        if not (0.0 < self.cx < self.width and 0.0 < self.cy < self.height):
            raise ConfigError("principal point must lie inside the image")
        with np.errstate(over="ignore"):  # an overflowing norm fails below
            n = float(np.linalg.norm(np.asarray(self.extrinsic_quaternion, dtype=float)))
        if not abs(n - 1.0) <= 1e-9:  # NaN fails too
            raise ConfigError("extrinsic quaternion must have unit norm")

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(np.asarray(self.extrinsic_quaternion, dtype=float))


@dataclass(frozen=True)
class TargetTomato:
    """A harvest target lifted into the base frame (metres)."""

    center_3d: np.ndarray
    pedicel_3d: np.ndarray
    ripeness: str
    estimated_radius: float
    source: DetectionRecord

    def __post_init__(self):
        points = []
        for name in ("center_3d", "pedicel_3d"):
            point = np.asarray(getattr(self, name), dtype=float)
            if point.shape != (3,) or not np.isfinite(point).all():
                raise ValidationError(name, None, "must be a finite 3-vector")
            points.append(point)
        if not self.estimated_radius > 0.0:
            raise ValidationError("estimated_radius", None, "must be > 0")
        center, pedicel = points
        # np.allclose(center, pedicel) for finite points, without its
        # special cases for inf and NaN
        if np.all(abs(center - pedicel) <= 1e-8 + 1e-5 * abs(pedicel)):
            raise ValidationError("pedicel_3d", None,
                                  "pedicel coincides with the tomato center")


def _require_number(value, field_name, index, lo=None, hi=None) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(field_name, index, f"expected a number, got {value!r}")
    # compared before converting: float() of an int past the range overflows
    x = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not np.isfinite(x):
        raise ValidationError(field_name, index, "must be finite")
    if lo is not None and x < lo or hi is not None and x > hi:
        raise ValidationError(field_name, index, f"{x!r} outside [{lo}, {hi}]")
    return x


def _parse_keypoint(raw, name, index, image_size) -> Keypoint:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ValidationError(f"keypoints.{name}", index,
                              "expected [u, v, confidence]")
    u = _require_number(raw[0], f"keypoints.{name}[0]", index)
    v = _require_number(raw[1], f"keypoints.{name}[1]", index)
    conf = _require_number(raw[2], f"keypoints.{name}[2]", index, 0.0, 1.0)
    if image_size is not None:
        width, height = image_size
        if not (0.0 <= u < width and 0.0 <= v < height):
            raise ValidationError(f"keypoints.{name}", index,
                                  f"({u}, {v}) outside {width}x{height} image")
    return Keypoint(u=u, v=v, confidence=conf)


_RECORD_KEYS = {"class", "score", "bbox", "mask", "keypoints"}


def _parse_record(raw, index, image_size) -> DetectionRecord:
    if not isinstance(raw, dict):
        raise ValidationError("record", index, "expected a JSON object")
    unknown = set(raw) - _RECORD_KEYS
    if unknown:
        raise ValidationError(sorted(unknown)[0], index, "unknown field")
    label = raw.get("class")
    if label not in RIPENESS_CLASSES:
        raise ValidationError("class", index,
                              f"expected one of {RIPENESS_CLASSES}, got {label!r}")
    score = _require_number(raw.get("score"), "score", index, 0.0, 1.0)
    bbox_raw = raw.get("bbox")
    if not isinstance(bbox_raw, (list, tuple)) or len(bbox_raw) != 4:
        raise ValidationError("bbox", index, "expected [u_min, v_min, u_max, v_max]")
    bbox = tuple(_require_number(b, f"bbox[{i}]", index)
                 for i, b in enumerate(bbox_raw))
    if not (bbox[0] < bbox[2] and bbox[1] < bbox[3]):
        raise ValidationError("bbox", index, "min must be < max per axis")
    kps = raw.get("keypoints")
    if not isinstance(kps, dict) or set(kps) != {"center", "pedicel"}:
        raise ValidationError("keypoints", index,
                              "expected object with 'center' and 'pedicel'")
    center = _parse_keypoint(kps["center"], "center", index, image_size)
    pedicel = _parse_keypoint(kps["pedicel"], "pedicel", index, image_size)
    mask = None
    if raw.get("mask") is not None:
        mask_raw = raw["mask"]
        if not isinstance(mask_raw, list):
            raise ValidationError("mask", index, "expected a list of [u, v] vertices")
        vertices = []
        for j, vert in enumerate(mask_raw):
            if not isinstance(vert, (list, tuple)) or len(vert) != 2:
                raise ValidationError(f"mask[{j}]", index, "expected [u, v]")
            vertices.append((_require_number(vert[0], f"mask[{j}][0]", index),
                             _require_number(vert[1], f"mask[{j}][1]", index)))
        mask = tuple(vertices)
    return DetectionRecord(label=label, score=score, bbox=bbox,
                           center=center, pedicel=pedicel, mask=mask)


def load_detections(path, image_size: tuple[int, int] | None = None
                    ) -> list[DetectionRecord]:
    """Load and validate a detection-record JSON file (order preserved).

    image_size, when given as (width, height), additionally bounds-checks
    the keypoints. Raises ParseError for malformed JSON and ValidationError
    naming the offending field and record index.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # ValueError: bad JSON, bad UTF-8 or an integer past Python's digit limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, list):
        raise ValidationError("root", None, "top level must be a JSON array")
    return [_parse_record(raw, i, image_size) for i, raw in enumerate(data)]


def save_detections(path, records: list[DetectionRecord]) -> None:
    """Inverse of load_detections; used to build fixtures and demos."""
    out = []
    for rec in records:
        obj = {
            "class": rec.label,
            "score": rec.score,
            "bbox": list(rec.bbox),
            "keypoints": {
                "center": [rec.center.u, rec.center.v, rec.center.confidence],
                "pedicel": [rec.pedicel.u, rec.pedicel.v, rec.pedicel.confidence],
            },
        }
        if rec.mask is not None:
            obj["mask"] = [list(v) for v in rec.mask]
        out.append(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_depth_frame(path) -> np.ndarray:
    """Read a binary depth frame; returns a (height, width) float32 array."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if len(blob) < 16 or blob[:4] != DEPTH_MAGIC:
        raise ParseError(f"{path}: missing DPTH header")
    width, height, _ = struct.unpack_from("<III", blob, 4)
    expected = 16 + 4 * width * height
    if len(blob) != expected:
        raise ParseError(
            f"{path}: size {len(blob)} does not match header "
            f"{width}x{height} ({expected} bytes)"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=16)
    return data.reshape(height, width)


def write_depth_frame(path, depth: np.ndarray) -> None:
    """Write a (height, width) array in the binary depth-frame format."""
    depth = np.asarray(depth, dtype="<f4")
    if depth.ndim != 2:
        raise ValueError("depth frame must be 2-D")
    height, width = depth.shape
    with open(path, "wb") as fh:
        fh.write(DEPTH_MAGIC)
        fh.write(struct.pack("<III", width, height, 0))
        fh.write(depth.tobytes(order="C"))


def pixel_to_camera(cam: CameraModel, u: float, v: float,
                    depth_raw: float) -> np.ndarray:
    """Back-project a pixel with raw depth into the camera frame (metres)."""
    z = float(depth_raw) * cam.depth_scale
    if not np.isfinite(z) or z <= 0.0:
        raise InvalidDepth(f"depth {depth_raw!r} (scaled {z!r}) is not positive")
    return np.array([(u - cam.cx) * z / cam.fx, (v - cam.cy) * z / cam.fy, z])


def camera_to_pixel(cam: CameraModel, p_cam: np.ndarray) -> tuple[float, float]:
    """Project a camera-frame point to pixel coordinates (inverse of pixel_to_camera)."""
    x, y, z = np.asarray(p_cam, dtype=float)
    if z <= 0.0:
        raise InvalidDepth(f"point behind the camera: z={z!r}")
    return cam.cx + cam.fx * x / z, cam.cy + cam.fy * y / z


def camera_to_base(cam: CameraModel, p_cam) -> np.ndarray:
    """Transform a camera-frame point into the robot base frame."""
    return cam.rotation_matrix() @ np.asarray(p_cam, dtype=float) \
        + np.asarray(cam.extrinsic_translation, dtype=float)


def sample_depth(depth_frame: np.ndarray, u: float, v: float,
                 window: int = DEPTH_WINDOW) -> float:
    """Median of the valid depths in a (2*window+1)^2 neighborhood of (u, v).

    Invalid samples (non-finite or <= 0) are skipped; raises NoValidDepth
    when none remain.
    """
    height, width = depth_frame.shape
    col = int(round(u))
    row = int(round(v))
    if not (0 <= col < width and 0 <= row < height):
        raise NoValidDepth(f"pixel ({u}, {v}) outside {width}x{height} frame")
    c0, c1 = max(0, col - window), min(width, col + window + 1)
    r0, r1 = max(0, row - window), min(height, row + window + 1)
    patch = np.asarray(depth_frame[r0:r1, c0:c1], dtype=float).ravel()
    valid = patch[np.isfinite(patch) & (patch > 0.0)]
    if valid.size == 0:
        raise NoValidDepth(f"no valid depth near pixel ({u}, {v})")
    return float(np.median(valid))


def _lift_keypoint(kp: Keypoint, cam: CameraModel, depth_frame: np.ndarray
                   ) -> tuple[np.ndarray, float]:
    raw = sample_depth(depth_frame, kp.u, kp.v)
    p_cam = pixel_to_camera(cam, kp.u, kp.v, raw)
    return camera_to_base(cam, p_cam), p_cam[2]


def build_target(record: DetectionRecord, cam: CameraModel,
                 depth_frame: np.ndarray) -> TargetTomato:
    """Lift a detection into a 3D harvest target.

    Both keypoints must reach DEFAULT_CONFIDENCE_THRESHOLD; each is lifted
    from the median depth within DEPTH_WINDOW pixels, and the tomato radius
    is estimated from the bbox width at the center keypoint's depth.
    """
    for name, kp in (("center", record.center), ("pedicel", record.pedicel)):
        if kp.confidence < DEFAULT_CONFIDENCE_THRESHOLD:
            raise LowConfidence(name, kp.confidence, DEFAULT_CONFIDENCE_THRESHOLD)
    center_3d, z_center = _lift_keypoint(record.center, cam, depth_frame)
    pedicel_3d, _ = _lift_keypoint(record.pedicel, cam, depth_frame)
    bbox_width = record.bbox[2] - record.bbox[0]
    radius = bbox_width * z_center / (2.0 * cam.fx)
    return TargetTomato(center_3d=center_3d, pedicel_3d=pedicel_3d,
                        ripeness=record.label, estimated_radius=radius,
                        source=record)


def select_target(records: list[DetectionRecord], cam: CameraModel,
                  depth_frame: np.ndarray, policy: str = "ripest-nearest"
                  ) -> TargetTomato:
    """Pick the harvest target among the ripe detections.

    "ripest-nearest" takes the buildable ripe target closest to the base
    origin; "highest-score" the one with the best detection score. Ties
    break to the lowest record index. Raises ValidationError when the depth
    frame is not the camera's image size, and NoRipeTarget when no ripe
    record yields a valid target.
    """
    if policy not in SELECTION_POLICIES:
        raise ValueError(f"policy must be one of {SELECTION_POLICIES}")
    shape = np.shape(depth_frame)
    if shape != (cam.height, cam.width):
        size = "x".join(str(d) for d in shape[::-1])
        raise ValidationError("depth_frame", None,
                              f"{size} frame does not match the "
                              f"{cam.width}x{cam.height} camera image")
    candidates: list[tuple[float, int, TargetTomato]] = []
    for i, rec in enumerate(records):
        if rec.label != "ripe":
            continue
        try:
            target = build_target(rec, cam, depth_frame)
        except (LowConfidence, NoValidDepth, InvalidDepth, ValidationError):
            continue
        if policy == "ripest-nearest":
            key = float(np.linalg.norm(target.center_3d))
        else:
            key = -rec.score
        candidates.append((key, i, target))
    if not candidates:
        raise NoRipeTarget("no ripe detection yields a buildable 3D target")
    candidates.sort(key=lambda item: (item[0], item[1]))
    return candidates[0][2]
