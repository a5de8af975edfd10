"""Single-file YAML configuration covering every module.

One document with per-module sections; omitted keys fall back to the shipped
defaults, unknown keys are rejected. Units: the mechanism section is mm/deg,
everything else m/rad unless the key says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from .arm import Joint, KinematicChain, RigidTransform
from .errors import ConfigError
from .harvest import PickCycleConfig, default_stage_means
from .mechanism import MechanismParams, check_assembly_range
from .perception import CameraModel
from .planner import Aabb, Capsule, PsoConfig, Scene, Sphere

_SECTIONS = ("mechanism", "arm", "camera", "scene", "pso", "pick_cycle")


@dataclass(frozen=True)
class RunConfig:
    mechanism: MechanismParams
    arm: KinematicChain
    camera: CameraModel
    scene: Scene
    pso: PsoConfig
    pick_cycle: PickCycleConfig


def _check_keys(section: str, raw: dict, allowed: set[str]) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key '{sorted(unknown)[0]}' in section '{section}'")


def _vec(raw, name, size=3) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{name}' must be a {size}-vector of numbers") from exc
    if arr.shape != (size,):
        raise ConfigError(f"'{name}' must be a {size}-vector")
    return arr


def _required(raw: dict, key: str, path: str):
    if key not in raw:
        raise ConfigError(f"'{path}.{key}' is required")
    return raw[key]


def _unit(raw, name) -> np.ndarray:
    """A 3-vector scaled to unit norm; zero and non-finite vectors are rejected."""
    vec = _vec(raw, name)
    norm = np.linalg.norm(vec)
    if not 0.0 < norm < np.inf:
        raise ConfigError(f"'{name}' must be a nonzero finite 3-vector")
    return vec / norm


def _transform(raw, name) -> RigidTransform:
    if raw is None:
        return RigidTransform()
    _check_keys(name, raw, {"translation", "quaternion_xyzw"})
    return RigidTransform(
        translation=_vec(raw.get("translation", [0.0, 0.0, 0.0]), name),
        quaternion=_vec(raw.get("quaternion_xyzw", [0.0, 0.0, 0.0, 1.0]),
                        name, 4),
    )


def _parse_mechanism(raw: dict) -> MechanismParams:
    allowed = {"r", "f", "a", "b", "c", "d", "e", "l_s", "l_p", "l_dm",
               "theta_range_deg", "finger_count"}
    _check_keys("mechanism", raw, allowed)
    kwargs = {k: float(raw[k]) for k in allowed - {"theta_range_deg", "finger_count"}
              if k in raw}
    if "theta_range_deg" in raw:
        rng = raw["theta_range_deg"]
        if not isinstance(rng, (list, tuple)) or len(rng) != 2:
            raise ConfigError("'theta_range_deg' must be [min, max]")
        kwargs["theta_range"] = (float(rng[0]), float(rng[1]))
    if "finger_count" in raw:
        kwargs["finger_count"] = int(raw["finger_count"])
    return MechanismParams(**kwargs)


def _parse_arm(raw: dict) -> KinematicChain:
    allowed = {"joints", "base_frame", "tool_offset", "approach_axis", "home_q"}
    _check_keys("arm", raw, allowed)
    if "joints" not in raw or not raw["joints"]:
        raise ConfigError("arm section needs a non-empty 'joints' list")
    joints = []
    for i, joint_raw in enumerate(raw["joints"]):
        path = f"arm.joints[{i}]"
        _check_keys(path, joint_raw, {"axis", "offset", "limits"})
        limits = _vec(_required(joint_raw, "limits", path), f"{path}.limits", 2)
        joints.append(Joint(
            axis=_unit(_required(joint_raw, "axis", path), f"{path}.axis"),
            offset=_vec(_required(joint_raw, "offset", path), f"{path}.offset"),
            limits=(float(limits[0]), float(limits[1])),
        ))
    approach = _unit(raw.get("approach_axis", [1.0, 0.0, 0.0]), "arm.approach_axis")
    home_q = None
    if "home_q" in raw:
        home_q = np.asarray(raw["home_q"], dtype=float)
    return KinematicChain(
        joints=tuple(joints),
        base_frame=_transform(raw.get("base_frame"), "arm.base_frame"),
        tool_offset=_transform(raw.get("tool_offset"), "arm.tool_offset"),
        approach_axis=approach,
        home_q=home_q,
    )


def _parse_camera(raw: dict) -> CameraModel:
    allowed = {"fx", "fy", "cx", "cy", "width", "height", "extrinsics",
               "depth_scale"}
    _check_keys("camera", raw, allowed)
    kwargs = {}
    for key in ("fx", "fy", "cx", "cy", "depth_scale"):
        if key in raw:
            kwargs[key] = float(raw[key])
    for key in ("width", "height"):
        if key in raw:
            kwargs[key] = int(raw[key])
    if "extrinsics" in raw:
        ext = _transform(raw["extrinsics"], "camera.extrinsics")
        kwargs["extrinsic_quaternion"] = np.asarray(ext.quaternion, dtype=float)
        kwargs["extrinsic_translation"] = np.asarray(ext.translation, dtype=float)
    return CameraModel(**kwargs)


def _parse_scene(raw: dict) -> Scene:
    allowed = {"spheres", "capsules", "workspace_bounds"}
    _check_keys("scene", raw, allowed)
    spheres = []
    for i, s in enumerate(raw.get("spheres") or []):
        path = f"scene.spheres[{i}]"
        _check_keys(path, s, {"center", "radius", "tag"})
        spheres.append(Sphere(
            center=_vec(_required(s, "center", path), f"{path}.center"),
            radius=float(_required(s, "radius", path)),
            tag=s.get("tag", "other")))
    capsules = []
    for i, c in enumerate(raw.get("capsules") or []):
        path = f"scene.capsules[{i}]"
        _check_keys(path, c, {"p0", "p1", "radius", "tag"})
        capsules.append(Capsule(p0=_vec(_required(c, "p0", path), f"{path}.p0"),
                                p1=_vec(_required(c, "p1", path), f"{path}.p1"),
                                radius=float(_required(c, "radius", path)),
                                tag=c.get("tag", "branch")))
    bounds = raw.get("workspace_bounds")
    if bounds is not None:
        _check_keys("scene.workspace_bounds", bounds, {"min", "max"})
        aabb = Aabb(_vec(bounds["min"], "scene.workspace_bounds.min"),
                    _vec(bounds["max"], "scene.workspace_bounds.max"))
    else:
        aabb = Aabb(np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))
    return Scene(spheres=tuple(spheres), capsules=tuple(capsules),
                 workspace_bounds=aabb)


def _parse_pso(raw: dict) -> PsoConfig:
    allowed = {"swarm_size", "iterations", "inertia", "cognitive", "social",
               "waypoints_per_particle", "seed", "collision_penalty",
               "limit_penalty", "clearance"}
    _check_keys("pso", raw, allowed)
    kwargs = {}
    for key in ("swarm_size", "iterations", "waypoints_per_particle", "seed"):
        if key in raw:
            kwargs[key] = int(raw[key])
    for key in ("inertia", "cognitive", "social", "collision_penalty",
                "limit_penalty", "clearance"):
        if key in raw:
            kwargs[key] = float(raw[key])
    return PsoConfig(**kwargs)


def _parse_pick_cycle(raw: dict) -> PickCycleConfig:
    allowed = {"stage_time_means", "stage_time_stddev_frac", "pose_noise_sigma",
               "cut_zone_radius", "cut_trigger_distance", "insertion_depth",
               "grasp_force", "grasp_theta_deg", "punnet_position", "seed"}
    _check_keys("pick_cycle", raw, allowed)
    kwargs = {}
    if "stage_time_means" in raw:
        means = raw["stage_time_means"]
        if not isinstance(means, dict):
            raise ConfigError("'stage_time_means' must be a mapping")
        base = default_stage_means()
        _check_keys("pick_cycle.stage_time_means", means, set(base))
        base.update({k: float(v) for k, v in means.items()})
        kwargs["stage_time_means"] = base
    for key in ("stage_time_stddev_frac", "pose_noise_sigma", "cut_zone_radius",
                "cut_trigger_distance", "insertion_depth", "grasp_force",
                "grasp_theta_deg"):
        if key in raw:
            kwargs[key] = float(raw[key])
    if "punnet_position" in raw:
        kwargs["punnet_position"] = _vec(raw["punnet_position"],
                                         "pick_cycle.punnet_position")
    if "seed" in raw:
        kwargs["seed"] = int(raw["seed"])
    return PickCycleConfig(**kwargs)


_PARSERS = {
    "mechanism": _parse_mechanism,
    "arm": _parse_arm,
    "camera": _parse_camera,
    "scene": _parse_scene,
    "pso": _parse_pso,
    "pick_cycle": _parse_pick_cycle,
}


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys("<root>", raw, set(_SECTIONS))
    if "arm" not in raw:
        raise ConfigError("config must contain an 'arm' section")
    parsed = {}
    for section in _SECTIONS:
        section_raw = raw.get(section)
        if section == "arm":
            parsed[section] = _parse_arm(section_raw)
        elif section_raw is None:
            parsed[section] = _PARSERS[section]({})
        else:
            if not isinstance(section_raw, dict):
                raise ConfigError(f"section '{section}' must be a mapping")
            parsed[section] = _PARSERS[section](section_raw)
    return RunConfig(**parsed)


def load_config(path) -> RunConfig:
    """Load and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return parse_config(raw if raw is not None else {})


def default_config_path():
    """Filesystem path of the shipped default configuration."""
    return resources.files("harvestcell").joinpath("data/default_config.yaml")


def load_default_config() -> RunConfig:
    """Load the shipped configuration.

    The shipped mechanism defaults are guaranteed to assemble over their
    whole crank range, so that is asserted here; custom configs may cover
    partially assembling geometries on purpose (the mechanism sweep reports
    those angles as no_assembly rows).
    """
    with resources.as_file(default_config_path()) as path:
        config = load_config(path)
    check_assembly_range(config.mechanism)
    return config
