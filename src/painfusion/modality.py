"""Feature-partition schemes over the 70-column stream: 66 joint
coordinates (22 joints x X/Y/Z blocks) plus 4 sEMG channels.

Three fixed partitions are provided: singular (everything as one
modality), bifurcated (coordinates vs sEMG), and quadrifurcated (upper
limbs / lower limbs / trunk / sEMG). The joint-to-segment assignment
behind the quadrifurcated scheme is a shipped convention and can be
overridden from a mapping file.
"""

from dataclasses import dataclass

from .errors import ConfigError

N_JOINTS = 22
N_FEATURES = 70
SEMG_INDICES = (66, 67, 68, 69)

UPPER = "upper_limbs"
LOWER = "lower_limbs"
TRUNK = "trunk"
SEGMENTS = (UPPER, LOWER, TRUNK)

# Shipped joint-to-segment convention for a 22-joint full-body rig:
# pelvis-to-head chain -> trunk, shoulder-to-hand chains -> upper limbs,
# hip-to-foot chains -> lower limbs. Override via a mapping file when the
# capture rig differs.
_DEFAULT_SEGMENTS = {
    0: TRUNK, 1: TRUNK, 2: TRUNK, 3: TRUNK, 4: TRUNK, 5: TRUNK,
    6: UPPER, 7: UPPER, 8: UPPER, 9: UPPER,
    10: UPPER, 11: UPPER, 12: UPPER, 13: UPPER,
    14: LOWER, 15: LOWER, 16: LOWER, 17: LOWER,
    18: LOWER, 19: LOWER, 20: LOWER, 21: LOWER,
}


@dataclass(frozen=True)
class JointSegmentMap:
    """Assignment of each of the 22 joints to a body segment."""

    assignments: dict[int, str]

    def __post_init__(self):
        keys = set(self.assignments)
        if keys != set(range(N_JOINTS)):
            raise ConfigError(
                f"expected exactly joints 0..{N_JOINTS - 1}, got {sorted(keys)}"
            )
        bad = {s for s in self.assignments.values() if s not in SEGMENTS}
        if bad:
            raise ConfigError(f"unknown segment name(s): {sorted(bad)}")
        for segment in SEGMENTS:
            if segment not in self.assignments.values():
                raise ConfigError(f"segment {segment!r} has no joints")


def default_joint_segment_map() -> JointSegmentMap:
    return JointSegmentMap(dict(_DEFAULT_SEGMENTS))


def parse_joint_segment_map(text: str) -> JointSegmentMap:
    """Parse a mapping file: 22 lines of ``joint_index segment_name``."""
    assignments: dict[int, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"line {lineno}: expected 'joint segment', got {line!r}")
        try:
            joint = int(parts[0])
        except ValueError:
            raise ConfigError(f"line {lineno}: bad joint index {parts[0]!r}") from None
        if joint in assignments:
            raise ConfigError(f"line {lineno}: joint {joint} assigned twice")
        assignments[joint] = parts[1]
    return JointSegmentMap(assignments)


@dataclass(frozen=True)
class ModalityScheme:
    """Named partition of the 70 feature indices into disjoint modalities.

    ``modalities`` maps modality name to a sorted tuple of feature
    indices; the union of all tuples must cover 0..69 exactly.
    """

    name: str
    modalities: dict[str, tuple[int, ...]]

    def __post_init__(self):
        seen: set[int] = set()
        total = 0
        for mod_name, indices in self.modalities.items():
            if len(indices) == 0:
                raise ConfigError(f"modality {mod_name!r} is empty")
            if list(indices) != sorted(indices):
                raise ConfigError(f"modality {mod_name!r} indices not sorted")
            seen.update(indices)
            total += len(indices)
        if total != N_FEATURES or seen != set(range(N_FEATURES)):
            raise ConfigError(
                f"scheme {self.name!r} must partition 0..{N_FEATURES - 1} exactly"
            )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.modalities)


def singular_scheme() -> ModalityScheme:
    return ModalityScheme("singular", {"all": tuple(range(N_FEATURES))})


def bifurcated_scheme() -> ModalityScheme:
    return ModalityScheme(
        "bifurcated",
        {"coords": tuple(range(66)), "semg": SEMG_INDICES},
    )


def quadrifurcated_scheme(joint_map: JointSegmentMap | None = None) -> ModalityScheme:
    """Four modalities: three body segments (a joint's X/Y/Z triple stays
    together) plus sEMG."""
    if joint_map is None:
        joint_map = default_joint_segment_map()
    by_segment: dict[str, list[int]] = {UPPER: [], LOWER: [], TRUNK: []}
    for joint in range(N_JOINTS):
        segment = joint_map.assignments[joint]
        by_segment[segment].extend((joint, 22 + joint, 44 + joint))
    modalities = {segment: tuple(sorted(by_segment[segment])) for segment in SEGMENTS}
    modalities["semg"] = SEMG_INDICES
    return ModalityScheme("quadrifurcated", modalities)


SCHEME_NAMES = ("singular", "bifurcated", "quadrifurcated")


def scheme_by_name(name: str, joint_map: JointSegmentMap | None = None) -> ModalityScheme:
    if name == "singular":
        return singular_scheme()
    if name == "bifurcated":
        return bifurcated_scheme()
    if name == "quadrifurcated":
        return quadrifurcated_scheme(joint_map)
    raise ConfigError(f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}")

