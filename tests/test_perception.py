import json

import numpy as np
import pytest

from harvestcell.arm import quat_to_matrix
from harvestcell.errors import (ConfigError, InvalidDepth, LowConfidence,
                                NoRipeTarget, NoValidDepth, ParseError,
                                ValidationError)
from harvestcell.perception import (CameraModel, DetectionRecord, Keypoint,
                                    TargetTomato, build_target,
                                    camera_to_base, camera_to_pixel,
                                    load_depth_frame, load_detections,
                                    pixel_to_camera, sample_depth,
                                    save_detections, select_target,
                                    write_depth_frame)

IDENTITY_CAM = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                           width=640, height=480)


def _record(**overrides):
    base = {
        "class": "ripe",
        "score": 0.9,
        "bbox": [100.0, 100.0, 200.0, 200.0],
        "keypoints": {"center": [150.0, 150.0, 0.9],
                      "pedicel": [150.0, 120.0, 0.8]},
    }
    base.update(overrides)
    return base


def _write(tmp_path, records):
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    return path


def test_load_preserves_order(tmp_path):
    path = _write(tmp_path, [_record(score=0.5), _record(score=0.6),
                             _record(score=0.7)])
    records = load_detections(path)
    assert [r.score for r in records] == [0.5, 0.6, 0.7]


def test_load_rejects_bad_score(tmp_path):
    path = _write(tmp_path, [_record(), _record(score=1.2)])
    with pytest.raises(ValidationError) as exc_info:
        load_detections(path)
    assert exc_info.value.field == "score"
    assert exc_info.value.index == 1


def test_load_empty_list(tmp_path):
    assert load_detections(_write(tmp_path, [])) == []


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_detections(path)


def test_load_rejects_unknown_field(tmp_path):
    path = _write(tmp_path, [_record(extra=1)])
    with pytest.raises(ValidationError, match="unknown"):
        load_detections(path)


def test_load_rejects_bad_bbox(tmp_path):
    path = _write(tmp_path, [_record(bbox=[200.0, 100.0, 100.0, 200.0])])
    with pytest.raises(ValidationError) as exc_info:
        load_detections(path)
    assert exc_info.value.field == "bbox"


def test_load_bounds_check_with_image_size(tmp_path):
    rec = _record()
    rec["keypoints"]["center"] = [900.0, 150.0, 0.9]
    path = _write(tmp_path, [rec])
    assert len(load_detections(path)) == 1  # no bounds without image size
    with pytest.raises(ValidationError, match="keypoints.center"):
        load_detections(path, image_size=(640, 480))


def test_detections_round_trip(tmp_path):
    records = [DetectionRecord(
        label="ripe", score=0.9, bbox=(1.0, 2.0, 3.0, 4.0),
        center=Keypoint(2.0, 3.0, 0.9), pedicel=Keypoint(2.0, 2.5, 0.8),
        mask=((1.0, 2.0), (3.0, 2.0), (3.0, 4.0)))]
    path = tmp_path / "round.json"
    save_detections(path, records)
    assert load_detections(path) == records


def test_pixel_to_camera_principal_point():
    p = pixel_to_camera(IDENTITY_CAM, 320.0, 240.0, 1.7)
    assert np.allclose(p, [0.0, 0.0, 1.7], atol=1e-15)


def test_pixel_to_camera_unit_slope():
    p = pixel_to_camera(IDENTITY_CAM, 320.0 + 500.0, 240.0, 2.0)
    assert np.allclose(p, [2.0, 0.0, 2.0], atol=1e-12)


def test_projection_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(200):
        u = rng.uniform(0, 640)
        v = rng.uniform(0, 480)
        z = rng.uniform(0.1, 5.0)
        p = pixel_to_camera(IDENTITY_CAM, u, v, z)
        u2, v2 = camera_to_pixel(IDENTITY_CAM, p)
        p2 = pixel_to_camera(IDENTITY_CAM, u2, v2, p[2])
        assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9
        assert np.linalg.norm(p2 - p) < 1e-9


def test_invalid_depth_rejected():
    with pytest.raises(InvalidDepth):
        pixel_to_camera(IDENTITY_CAM, 10.0, 10.0, 0.0)
    with pytest.raises(InvalidDepth):
        pixel_to_camera(IDENTITY_CAM, 10.0, 10.0, float("nan"))


def test_camera_to_base_identity_and_translation():
    p = np.array([0.1, 0.2, 0.3])
    assert np.allclose(camera_to_base(IDENTITY_CAM, p), p)
    cam = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640,
                      height=480,
                      extrinsic_translation=np.array([1.0, 2.0, 3.0]))
    assert np.allclose(camera_to_base(cam, p), p + [1.0, 2.0, 3.0])


def test_camera_to_base_inverse_transform():
    rng = np.random.default_rng(9)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    t = rng.normal(size=3)
    cam = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640,
                      height=480, extrinsic_quaternion=q,
                      extrinsic_translation=t)
    p = rng.normal(size=3)
    transformed = camera_to_base(cam, p)
    rot = quat_to_matrix(q)
    recovered = rot.T @ (transformed - t)
    assert np.linalg.norm(recovered - p) < 1e-12


def test_sample_depth_uniform_and_median():
    frame = np.full((10, 10), 2.5, dtype=np.float32)
    assert sample_depth(frame, 5, 5, window=2) == 2.5
    frame[5, 5] = 0.0  # invalid center, neighbors still valid
    assert sample_depth(frame, 5, 5, window=1) == 2.5


def test_sample_depth_median_matches_sort_oracle():
    rng = np.random.default_rng(12)
    patch = rng.uniform(0.5, 3.0, (5, 5)).astype(np.float32)
    frame = np.full((20, 20), np.nan, dtype=np.float32)
    frame[4:9, 3:8] = patch
    got = sample_depth(frame, 5, 6, window=2)
    flat = sorted(float(v) for v in patch.ravel())
    mid = len(flat) // 2
    oracle = flat[mid]  # odd count: middle of the sorted values
    assert got == pytest.approx(oracle, abs=1e-12)


def test_sample_depth_no_valid(tmp_path):
    frame = np.zeros((5, 5), dtype=np.float32)
    with pytest.raises(NoValidDepth):
        sample_depth(frame, 2, 2)


def test_depth_frame_io_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    frame = rng.uniform(0.2, 2.0, (12, 7)).astype(np.float32)
    path = tmp_path / "depth.bin"
    write_depth_frame(path, frame)
    loaded = load_depth_frame(path)
    assert loaded.shape == (12, 7)
    assert np.array_equal(loaded, frame)


def test_depth_frame_rejects_truncation(tmp_path):
    path = tmp_path / "depth.bin"
    write_depth_frame(path, np.ones((4, 4), dtype=np.float32))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ParseError):
        load_depth_frame(path)
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ParseError):
        load_depth_frame(path)


WIDE_CAM = CameraModel(fx=500.0, fy=500.0, cx=640.0, cy=360.0,
                       width=1280, height=720)


def _synthetic_target_fixture():
    """Forward-project a known 3D tomato through an identity-extrinsics camera."""
    center_3d = np.array([0.4, 0.0, 0.6])
    pedicel_3d = center_3d + np.array([0.0, -0.03, 0.0])
    cu, cv = camera_to_pixel(WIDE_CAM, center_3d)
    pu, pv = camera_to_pixel(WIDE_CAM, pedicel_3d)
    frame = np.zeros((720, 1280))
    frame[:360, :] = pedicel_3d[2]
    frame[360:, :] = center_3d[2]
    record = DetectionRecord(
        label="ripe", score=0.95, bbox=(cu - 50.0, cv - 50.0, cu + 50.0, cv + 50.0),
        center=Keypoint(cu, cv, 0.9), pedicel=Keypoint(pu, pv, 0.9))
    return record, frame, center_3d, pedicel_3d


def test_build_target_forward_projection_oracle():
    record, frame, center_3d, pedicel_3d = _synthetic_target_fixture()
    target = build_target(record, WIDE_CAM, frame)
    assert np.linalg.norm(target.center_3d - center_3d) < 1e-9
    assert np.linalg.norm(target.pedicel_3d - pedicel_3d) < 1e-9


def test_build_target_low_confidence():
    record, frame, _, _ = _synthetic_target_fixture()
    weak = DetectionRecord(label=record.label, score=record.score,
                           bbox=record.bbox, center=record.center,
                           pedicel=Keypoint(record.pedicel.u, record.pedicel.v,
                                            0.3))
    with pytest.raises(LowConfidence) as exc_info:
        build_target(weak, WIDE_CAM, frame)
    assert exc_info.value.keypoint == "pedicel"


def test_build_target_radius_from_bbox():
    # bbox 100 px wide at z = 1 m with fx = 500 -> radius 0.1 m
    frame = np.ones((480, 640))
    record = DetectionRecord(label="ripe", score=0.9,
                             bbox=(270.0, 190.0, 370.0, 290.0),
                             center=Keypoint(320.0, 240.0, 0.9),
                             pedicel=Keypoint(320.0, 220.0, 0.9))
    target = build_target(record, IDENTITY_CAM, frame)
    assert target.estimated_radius == pytest.approx(0.1, abs=1e-12)


def _ripe_at(u, v, score=0.9):
    return DetectionRecord(label="ripe", score=score,
                           bbox=(u - 40.0, v - 40.0, u + 40.0, v + 40.0),
                           center=Keypoint(u, v, 0.9),
                           pedicel=Keypoint(u, v - 20.0, 0.9))


def test_select_target_prefers_ripe():
    frame = np.ones((480, 640))
    unripe = DetectionRecord(label="unripe", score=0.99,
                             bbox=(100.0, 100.0, 200.0, 200.0),
                             center=Keypoint(150.0, 150.0, 0.9),
                             pedicel=Keypoint(150.0, 130.0, 0.9))
    ripe = _ripe_at(320.0, 240.0, score=0.5)
    target = select_target([unripe, ripe], IDENTITY_CAM, frame)
    assert target.ripeness == "ripe"


def test_select_target_nearest_policy():
    # two ripe tomatoes at different depths: nearer wins under ripest-nearest
    frame = np.ones((480, 640))
    frame[:, :320] = 0.5
    frame[:, 320:] = 0.7
    near = _ripe_at(160.0, 240.0, score=0.1)
    far = _ripe_at(480.0, 240.0, score=0.99)
    target = select_target([far, near], IDENTITY_CAM, frame, "ripest-nearest")
    assert target.source == near
    target = select_target([far, near], IDENTITY_CAM, frame, "highest-score")
    assert target.source == far


def test_select_target_reorder_invariant():
    frame = np.ones((480, 640))
    frame[:, :320] = 0.5
    records = [_ripe_at(160.0, 240.0), _ripe_at(480.0, 240.0),
               _ripe_at(320.0, 300.0)]
    baseline = select_target(records, IDENTITY_CAM, frame)
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        permuted = [records[i] for i in perm]
        got = select_target(permuted, IDENTITY_CAM, frame)
        assert np.allclose(got.center_3d, baseline.center_3d)


def test_select_target_no_ripe():
    frame = np.ones((480, 640))
    unripe = DetectionRecord(label="unripe", score=0.9,
                             bbox=(100.0, 100.0, 200.0, 200.0),
                             center=Keypoint(150.0, 150.0, 0.9),
                             pedicel=Keypoint(150.0, 130.0, 0.9))
    with pytest.raises(NoRipeTarget):
        select_target([unripe], IDENTITY_CAM, frame)


@pytest.mark.parametrize("shape", [(4, 4), (480, 641), (640, 480)])
def test_select_target_rejects_frame_of_another_size(shape):
    # every keypoint of a smaller frame would fall outside it and end in
    # NoRipeTarget; the error names both sizes instead
    frame = np.ones(shape)
    with pytest.raises(ValidationError, match=rf"{shape[1]}x{shape[0]} frame .* 640x480"):
        select_target([_ripe_at(2.0, 2.0)], IDENTITY_CAM, frame)


def test_select_target_skips_unbuildable():
    frame = np.ones((480, 640))
    frame[200:280, 120:200] = 0.0  # depth hole under the first tomato
    broken = _ripe_at(160.0, 240.0)
    good = _ripe_at(480.0, 240.0)
    target = select_target([broken, good], IDENTITY_CAM, frame)
    assert target.source == good


def test_camera_rejects_nan_extrinsic_quaternion():
    with pytest.raises(ConfigError):
        CameraModel(extrinsic_quaternion=np.array([np.nan, 0.0, 0.0, 1.0]))


@pytest.mark.parametrize("field", ["center_3d", "pedicel_3d"])
def test_target_rejects_non_finite_points(field):
    points = {"center_3d": np.array([0.45, 0.0, 0.40]),
              "pedicel_3d": np.array([0.45, 0.0, 0.42])}
    points[field] = np.array([np.nan, 0.0, 0.40])
    with pytest.raises(ValidationError, match=field):
        TargetTomato(**points, ripeness="ripe", estimated_radius=0.035,
                     source=None)


def test_target_duplicate_point_test_is_allclose():
    # gaps around np.allclose's threshold 1e-8 + 1e-5 |pedicel| per axis, at
    # several scales and signs: construction fails exactly where allclose holds
    rng = np.random.default_rng(5)
    rejected = 0
    for scale in (0.0, 1e-9, 1e-3, 0.4, 1.0, 1e3):
        pedicel = scale * rng.uniform(-1.0, 1.0, (200, 3))
        limit = 1e-8 + 1e-5 * np.abs(pedicel)
        gaps = limit * rng.choice([0.0, 0.5, 1.0, 1.0 + 1e-12, 2.0], (200, 3))
        centers = pedicel + gaps * rng.choice([-1.0, 1.0], (200, 3))
        for center, ped in zip(centers, pedicel):
            duplicate = np.allclose(center, ped)
            try:
                TargetTomato(center_3d=center, pedicel_3d=ped, ripeness="ripe",
                             estimated_radius=0.035, source=None)
            except ValidationError as exc:
                assert duplicate and "pedicel_3d" in str(exc)
                rejected += 1
            else:
                assert not duplicate
    assert 0 < rejected < 1200
