"""Scenario configuration and replayable market instance generation.

A market has n_doctors doctors and n_hospitals hospitals (capacity kappa
each, or an explicit per-hospital vector).  Public ratings and all pairwise
values are uniform draws addressed through the counter-based generator in
:mod:`conematch.rng`, so an instance is a pure function of
(config, run_index) and any single value can be replayed in isolation.

Utilities follow the interview model:

* doctor d for hospital h:   r(h) + v(d,h) + nu_d * iota(d,h)
* hospital h for doctor d:   r(d) + nu_h * iota(h,d)
* school-choice variant:     r(d) only (schools share one ranking)

Each doctor interviews at hospitals drawn from her cone, the public-rating
band [r(d) - a*alpha, r(d) + a*alpha).
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional, Union

import numpy as np

from . import rng

RESIDENCY = "Residency"
SCHOOL_CHOICE = "SchoolChoice"
REQUEST_INTERVIEW = "RequestInterview"
SETTINGS = (RESIDENCY, SCHOOL_CHOICE, REQUEST_INTERVIEW)

_RATING_RETRIES = 16


class ConfigError(ValueError):
    """Invalid scenario configuration."""


INT64_MAX = 2 ** 63 - 1

# one row per numeric MarketConfig field: (kind, least, greatest,
# least_excluded, none_valid).  Kind int takes an integer but not a bool,
# kind float a finite float or an int that has a float value; `capacity` is
# checked entry by entry.  Rows whose values become int64 array entries
# (counts, ids, capacities) stop at INT64_MAX, and so does `runs`, which
# config_hash writes as JSON.
FIELDS = {
    "n_doctors": (int, 1, INT64_MAX, False, False),
    "n_hospitals": (int, 1, INT64_MAX, False, False),
    "capacity": (int, 1, INT64_MAX, False, False),
    "k": (int, 1, INT64_MAX, False, False),
    "a": (float, 0.0, math.inf, True, False),
    "alpha": (float, 0.0, math.inf, True, True),
    "cone_override": (float, 0.0, math.inf, True, True),
    "nu_d": (float, 0.0, 1.0, False, False),
    "nu_h": (float, 0.0, 1.0, False, False),
    # the long side's rating range has width 1 + rating_shift
    "rating_shift": (float, -1.0, math.inf, True, False),
    "seed": (int, 0, 2 ** 64 - 1, False, False),
    "runs": (int, 1, INT64_MAX, False, False),
}


def _shown(value) -> str:
    # repr(value), unless it holds an integer of more digits than str writes
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too long to print"


def check_field(name: str, value, rule=None) -> None:
    """ConfigError unless value is valid for `rule`, a row in FIELDS' form
    (FIELDS[name] without one).

    Integers are compared as Python ints, exactly; only a float is tested
    for finiteness.
    """
    kind, least, greatest, least_excluded, none_valid = rule or FIELDS[name]
    if value is None and none_valid:
        return
    integer = (isinstance(value, (int, np.integer))
               and not isinstance(value, (bool, np.bool_)))
    if kind is int and not integer:
        raise ConfigError(f"{name} must be an integer, got {_shown(value)}")
    if integer:
        value = int(value)
        if kind is float and abs(value) > sys.float_info.max:
            raise ConfigError(f"{name} must be a finite number, got an integer "
                              f"too large for a float")
    elif not isinstance(value, (float, np.floating)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {_shown(value)}")
    if value < least or value > greatest or (least_excluded and value == least):
        raise ConfigError(f"{name} must lie in {'(' if least_excluded else '['}{least}, "
                          f"{greatest}{')' if greatest == math.inf else ']'}, "
                          f"got {_shown(value)}")


def check_agent_id(what: str, value, n: int) -> None:
    """ValueError unless value is an integer id in [0, n): a Python or numpy
    integer, not a bool."""
    if (not isinstance(value, (int, np.integer))
            or isinstance(value, (bool, np.bool_))):
        raise ValueError(f"{what} must be an integer id, got {_shown(value)}")
    if not 0 <= value < n:
        raise ValueError(f"{what} {value} lies outside [0, {n})")


def _kappa(capacity) -> int:
    # the mean capacity, rounded half to even; a uniform one is its own mean
    return round(float(np.mean(capacity)))


@dataclass(frozen=True)
class MarketConfig:
    """All parameters of one simulated scenario.

    `capacity` is either one int (uniform kappa) or a per-hospital tuple.
    `alpha` overrides the derived cone scale; `cone_override` instead fixes
    the absolute cone half-width a*alpha in rating units (the bundled
    experiment presets use cone_override=0.3).  A config gives at most one
    of the two.  FIELDS gives each numeric field's valid values.
    """

    n_doctors: int
    n_hospitals: int
    capacity: Union[int, tuple] = 1
    k: int = 5
    a: float = 5.0
    alpha: Optional[float] = None
    cone_override: Optional[float] = None
    setting: str = RESIDENCY
    nu_d: float = 1.0
    nu_h: float = 1.0
    rating_shift: float = 0.0
    seed: int = 0
    runs: int = 1

    def __post_init__(self):
        vector = isinstance(self.capacity, (tuple, list, np.ndarray))
        for name in FIELDS:
            for value in (self.capacity if vector and name == "capacity"
                          else (getattr(self, name),)):
                check_field(name, value)
        if self.setting not in SETTINGS:
            raise ConfigError(f"unknown setting {_shown(self.setting)}")
        if self.k < 2 and self.alpha is None and self.cone_override is None:
            raise ConfigError("k < 2 needs alpha or cone_override")
        if self.alpha is not None and self.cone_override is not None:
            raise ConfigError("give alpha or cone_override, not both")
        if self.k > self.n_hospitals:
            raise ConfigError(
                f"k={self.k} exceeds the number of hospitals ({self.n_hospitals})")
        if vector and len(self.capacity) != self.n_hospitals:
            raise ConfigError("capacity vector length must equal n_hospitals")
        # total_places and the oracle sum the capacities in int64
        total = (sum(int(c) for c in self.capacity) if vector
                 else int(self.n_hospitals) * int(self.capacity))
        if total > INT64_MAX:
            raise ConfigError(f"the capacities must sum to at most {INT64_MAX}, "
                              f"got {total}")
        # numpy scalars are stored as the Python numbers they hold
        for name in FIELDS:
            if isinstance(getattr(self, name), np.generic):
                object.__setattr__(self, name, getattr(self, name).item())
        if vector:
            object.__setattr__(self, "capacity", tuple(int(c) for c in self.capacity))

    def capacities(self) -> np.ndarray:
        if isinstance(self.capacity, tuple):
            return np.asarray(self.capacity, dtype=np.int64)
        return np.full(self.n_hospitals, int(self.capacity), dtype=np.int64)

    @property
    def kappa(self) -> int:
        """Mean capacity, rounded: the uniform capacity if there is one."""
        return _kappa(self.capacity)

    def total_places(self) -> int:
        return int(self.capacities().sum())

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MarketConfig":
        """The config a flat dict of field values gives.

        A missing n_hospitals defaults to n_doctors / kappa, rounded and at
        least 1.  A list capacity is a per-hospital vector.
        """
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "n_doctors" not in data:
            raise ConfigError("missing config key: n_doctors")
        kwargs = dict(data)
        if isinstance(kwargs.get("capacity"), list):
            kwargs["capacity"] = tuple(kwargs["capacity"])
        if "n_hospitals" not in kwargs:
            cap = kwargs.get("capacity", 1)
            check_field("n_doctors", kwargs["n_doctors"])
            # an empty vector is checked as one value, which refuses it
            for c in cap if isinstance(cap, tuple) and cap else (cap,):
                check_field("capacity", c)
            kwargs["n_hospitals"] = max(1, round(kwargs["n_doctors"] / _kappa(cap)))
        return cls(**kwargs)


def derive_alpha(config: MarketConfig) -> float:
    """Cone scale alpha from the recommended-strategy formulas.

    Residency / RequestInterview:  sqrt(2*(4a+1)*ln k / k)
    SchoolChoice:                  2*(4a+1)*ln k / k

    An explicit `alpha` or `cone_override` on the config bypasses the
    derivation; MarketConfig refuses k < 2 without one (ln 1 = 0 leaves the
    formula degenerate).
    """
    if config.alpha is not None:
        return config.alpha
    if config.cone_override is not None:
        return config.cone_override / config.a
    base = 2.0 * (4.0 * config.a + 1.0) * math.log(config.k) / config.k
    if config.setting == SCHOOL_CHOICE:
        return base
    return math.sqrt(base)


def shift_ranges(config: MarketConfig) -> tuple:
    """Public rating ranges ((d_lo, d_hi), (h_lo, h_hi)) for the two sides.

    With equal counts of doctors and hospital places both sides draw from
    [0, 1).  With m surplus agents on one side, the long side's range grows
    to width 1 + m/n and the short side's unit-width range is nested at its
    top, so the bottommost long-side agents sit below every short-side cone.
    A nonzero rating_shift overrides the automatic m/n offset.
    """
    places = config.total_places()
    n_doc = config.n_doctors
    if n_doc == places and config.rating_shift == 0.0:
        return (0.0, 1.0), (0.0, 1.0)
    if n_doc >= places:
        off = config.rating_shift or (n_doc - places) / places
        return (0.0, 1.0 + off), (off, 1.0 + off)
    off = config.rating_shift or (places - n_doc) / n_doc
    return (off, 1.0 + off), (0.0, 1.0 + off)


def cone_half_width(config: MarketConfig) -> tuple:
    """(half_width, clamped): the effective cone half-width a*alpha, capped
    at the width of the hospitals' rating range, and whether the cap bound.
    """
    if config.cone_override is not None:
        half = config.cone_override
    else:
        half = config.a * derive_alpha(config)
    h_lo, h_hi = shift_ranges(config)[1]
    return min(half, h_hi - h_lo), half > h_hi - h_lo


def market_key(config: MarketConfig) -> tuple:
    """What fixes a config's ratings, cones and v(d,h) at every run.

    Two configs with equal keys draw the same public ratings, the same
    cones and the same private values v(d,h) at each run index, so their
    in-cone selections agree.  Capacities enter only through the rating
    ranges, and k and the setting only through a derived cone.
    """
    return (config.seed, config.n_doctors, config.n_hospitals,
            shift_ranges(config), cone_half_width(config)[0])


def _draw_ratings(state, count, lo, hi, what):
    # redraws with a bumped salt until all values are distinct
    for salt in range(_RATING_RETRIES):
        r = rng.uniform(state, np.arange(count), salt)
        if np.diff(np.sort(r)).all():       # np.unique would import numpy.ma
            return lo + (hi - lo) * r
    raise RuntimeError(f"could not draw distinct {what} ratings "
                       f"after {_RATING_RETRIES} attempts")


class MarketInstance:
    """One realized market: ratings plus a pure value oracle.

    Immutable after construction; safe to share across workers.  Pairwise
    values are not stored, they are recomputed on demand from the key
    (seed, run, kind, doctor, hospital), so two processes always agree.
    """

    def __init__(self, config: MarketConfig, run_index: int):
        self.config = config
        self.run_index = run_index
        self.capacities = config.capacities()
        self.doctor_range, self.hospital_range = shift_ranges(config)

        seed, run = config.seed, run_index
        self.doctor_ratings = _draw_ratings(
            rng.key_state(seed, run, rng.KIND_DOCTOR_RATING),
            config.n_doctors, *self.doctor_range, "doctor")
        self.hospital_ratings = _draw_ratings(
            rng.key_state(seed, run, rng.KIND_HOSPITAL_RATING),
            config.n_hospitals, *self.hospital_range, "hospital")

        # sorted view for O(log) cone range queries
        self.hospital_order = np.argsort(self.hospital_ratings, kind="stable")
        self.hospital_sorted = self.hospital_ratings[self.hospital_order]
        self.doctor_order = np.argsort(self.doctor_ratings, kind="stable")
        self.doctor_sorted = self.doctor_ratings[self.doctor_order]

        self.half_width, self.cone_clamped = cone_half_width(config)
        self.alpha_eff = self.half_width / config.a

        # stream states: v(d,h) is rng.uniform(private_dh_state, d, h), and
        # v(h,d) is rng.uniform(private_hd_state, h, d)
        self.private_dh_state = rng.key_state(seed, run, rng.KIND_PRIVATE_DH)
        self._st_interview_dh = rng.key_state(seed, run, rng.KIND_INTERVIEW_DH)
        self._st_interview_hd = rng.key_state(seed, run, rng.KIND_INTERVIEW_HD)
        self.private_hd_state = rng.key_state(seed, run, rng.KIND_PRIVATE_HD)

    # -- value oracle -------------------------------------------------

    def private_dh(self, doctor, hospital):
        """v(d,h); scalar or broadcast over arrays."""
        return rng.uniform(self.private_dh_state, doctor, hospital)

    def interview_dh(self, doctor, hospital, salt=0):
        """iota(d,h).  A nonzero salt addresses replicate redraws: the
        stream key_state(seed, run, KIND_INTERVIEW_DH, salt), which is the
        unsalted state's half_i at the salt.  An array of nonzero salts
        draws each salt's stream, broadcast against the ids (salts of shape
        (R, 1) against n hospitals give an (R, n) array)."""
        return rng.uniform(_salted(self._st_interview_dh, salt), doctor, hospital)

    def interview_hd(self, hospital, doctor, salt=0):
        """iota(h,d), salted as interview_dh."""
        return rng.uniform(_salted(self._st_interview_hd, salt), hospital, doctor)

    # -- geometry helpers ----------------------------------------------

    def hospitals_in_band(self, lo: float, hi: float) -> np.ndarray:
        """Hospital ids with rating in [lo, hi), ascending id order."""
        return _in_band(self.hospital_sorted, self.hospital_order, lo, hi)

    def doctors_in_band(self, lo: float, hi: float) -> np.ndarray:
        """Doctor ids with rating in [lo, hi), ascending id order."""
        return _in_band(self.doctor_sorted, self.doctor_order, lo, hi)


def _salted(state, salt):
    # the stream state at a nonzero salt, or at each of an array of them;
    # the unsalted state at 0
    return rng.half_i(state, salt)[()] if np.any(salt) else state


def _in_band(sorted_ratings: np.ndarray, order: np.ndarray, lo: float,
             hi: float) -> np.ndarray:
    # the ids, ascending, whose ratings (order sorts them into
    # sorted_ratings) lie in [lo, hi)
    i, j = np.searchsorted(sorted_ratings, (lo, hi), side="left")
    return np.sort(order[i:j])


def generate(config: MarketConfig, run_index: int) -> MarketInstance:
    """Build the deterministic instance for (config, run_index)."""
    return MarketInstance(config, run_index)


def make_config(n: int, kappa: int = 1, **kwargs) -> MarketConfig:
    """Convenience: n doctors and n/kappa hospitals (at least one)."""
    return MarketConfig.from_dict(dict(kwargs, n_doctors=n, capacity=kappa))
