"""Detection-record ingestion and 2D-to-3D target localization.

Neural inference happens upstream; this module consumes its outputs: a JSON
file of per-tomato segmentation + keypoint records and a binary depth frame.
Keypoints are lifted through a pinhole camera model into the robot base
frame and the harvest target is selected among the ripe detections.

Detection file: a JSON array of records, each read by `domains.load` into a
`DetectionRecord`, whose fields declare its schema: {"class": "ripe" or
"unripe", "score": s, "bbox": [u_min, v_min, u_max, v_max], "keypoints":
{"center": [u, v, c], "pedicel": [u, v, c]}, "mask": [[u, v], ...] or
null}, where s and c lie in [0, 1], every u and v is finite and the bbox
has min < max per axis. Only "mask" may be left out. A record outside its
schema raises a one-line ConfigError naming its key path: `'[1].score' must
be in [0, 1], got 1.2`, `unknown key '[0].keypoints.tip'`.

Depth frame format: 16-byte header (magic "DPTH", u32 width, u32 height,
u32 reserved, all little-endian) followed by row-major float32 depth in
metres (depth_scale 1.0 for this format).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

from .arm import quat_to_matrix
from .domains import (Checked, Count, Finite, Fraction, Positive, Quaternion,
                      Vec3, load)
from .errors import (ConfigError, DomainError, InvalidDepth, LowConfidence,
                     NoRipeTarget, NoValidDepth, ParseError, ValidationError)

SELECTION_POLICIES = ("ripest-nearest", "highest-score")
DEPTH_MAGIC = b"DPTH"
DEFAULT_CONFIDENCE_THRESHOLD = 0.5
# half-width in pixels of the depth neighborhood a keypoint is lifted from
DEPTH_WINDOW = 2


class Keypoint(NamedTuple):
    """A pixel and its confidence, in the file as `[u, v, confidence]`."""

    u: Finite
    v: Finite
    confidence: Fraction


@dataclass(frozen=True)
class DetectionRecord(Checked):
    """One 2D detection: class, score, box, optional mask polygon, two keypoints."""

    label: Literal["ripe", "unripe"] = field(metadata={"key": "class"})
    score: Fraction
    bbox: tuple[Finite, Finite, Finite, Finite]   # u_min, v_min, u_max, v_max
    center: Keypoint = field(metadata={"key": "keypoints.center"})
    pedicel: Keypoint = field(metadata={"key": "keypoints.pedicel"})
    mask: tuple[tuple[Finite, Finite], ...] | None = None

    def __post_init__(self):
        super().__post_init__()
        u_min, v_min, u_max, v_max = self.bbox
        if not (u_min < u_max and v_min < v_max):
            raise ConfigError("bbox must satisfy min < max per axis")


@dataclass(frozen=True)
class CameraModel(Checked):
    """Pinhole intrinsics plus camera-to-base extrinsics."""

    fx: Positive = 700.0
    fy: Positive = 700.0
    cx: Finite = 640.0
    cy: Finite = 360.0
    width: Count = 1280
    height: Count = 720
    extrinsic_quaternion: Quaternion = field(
        default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]),
        metadata={"key": "extrinsics.quaternion_xyzw"})
    extrinsic_translation: Vec3 = field(
        default_factory=lambda: np.zeros(3), metadata={"key": "extrinsics.translation"})
    depth_scale: Positive = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.cx < self.width and 0.0 < self.cy < self.height):
            raise ConfigError("principal point must lie inside the image")

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.extrinsic_quaternion)


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
                raise ValidationError(name, "must be a finite 3-vector")
            points.append(point)
        if not self.estimated_radius > 0.0:
            raise ValidationError("estimated_radius", "must be > 0")
        center, pedicel = points
        # np.allclose(center, pedicel) for finite points, without its
        # special cases for inf and NaN
        if np.all(abs(center - pedicel) <= 1e-8 + 1e-5 * abs(pedicel)):
            raise ValidationError("pedicel_3d",
                                  "pedicel coincides with the tomato center")


def load_detections(path, image_size: tuple[int, int] | None = None
                    ) -> list[DetectionRecord]:
    """Load and validate a detection-record JSON file (order preserved).

    image_size, when given as (width, height), additionally rejects a
    keypoint whose pixel, the one `sample_depth` reads, lies outside the
    image. Raises ParseError for malformed JSON, ValidationError for a top
    level that is not an array, and ConfigError for a record outside its
    schema, a keypoint outside the image included (a DomainError named by
    its key path: `'[0].keypoints.center' must be inside the 1280x720
    image, got (1640.0, 360.0)`).
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
        raise ValidationError("root", "top level must be a JSON array")
    records = []
    for i, raw in enumerate(data):
        record = load(DetectionRecord, raw, f"[{i}]")
        if image_size is not None:
            width, height = image_size
            for name in ("center", "pedicel"):
                u, v, _ = getattr(record, name)
                if _pixel(u, v, width, height) is None:
                    raise DomainError(f"[{i}].keypoints.{name}",
                                      f"inside the {width}x{height} image",
                                      f"({u}, {v})")
        records.append(record)
    return records


def save_detections(path, records: list[DetectionRecord]) -> None:
    """Inverse of load_detections; used to build fixtures and demos."""
    out = []
    for rec in records:
        obj = {
            "class": rec.label,
            "score": rec.score,
            "bbox": list(rec.bbox),
            "keypoints": {
                "center": list(rec.center),
                "pedicel": list(rec.pedicel),
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
        + cam.extrinsic_translation


def _pixel(u: float, v: float, width: int, height: int) -> tuple[int, int] | None:
    """The (column, row) of a width x height image that a keypoint at (u, v)
    is sampled at, each coordinate rounded to the nearest integer (halves
    to even, as Python's `round`), or None when a coordinate is not finite
    or that pixel lies outside the image. The loader's bounds check and
    `sample_depth` share this rule: for an even width, u is inside when it
    lies in [-0.5, width - 0.5), and likewise v for the height."""
    if not (math.isfinite(u) and math.isfinite(v)):
        return None
    col, row = round(u), round(v)
    return (col, row) if 0 <= col < width and 0 <= row < height else None


def sample_depth(depth_frame: np.ndarray, u: float, v: float,
                 window: int = DEPTH_WINDOW) -> float:
    """Median of the valid depths in a (2*window+1)^2 neighborhood of (u, v).

    Invalid samples (non-finite or <= 0) are skipped; raises NoValidDepth
    when none remain.
    """
    height, width = depth_frame.shape
    pixel = _pixel(u, v, width, height)
    if pixel is None:
        raise NoValidDepth(f"pixel ({u}, {v}) outside {width}x{height} frame")
    col, row = pixel
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
        raise ValidationError("depth_frame",
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
